"""Determinism regression tests for the serving tier.

Serving experiments are only reproducible if (a) trace generation is a pure
function of its seed and (b) the engine makes byte-identical decisions on
identical traces — including the KV-pressure path, whose preemption choices
must not depend on dict ordering or float incidentals.  These tests guard
``random.Random`` usage drift (e.g. someone reaching for the global
``random`` module) and any nondeterminism sneaking into the engine loop.
"""

import json

from repro.models.config import GPT2
from repro.serving import (
    KVCacheConfig,
    SchedulerConfig,
    ServingEngine,
    poisson_trace,
)


def trace_fingerprint(trace) -> str:
    """A byte-exact rendering of a trace (repr of floats is exact)."""
    return json.dumps([
        [t.request_id, t.workload.input_len, t.workload.output_len,
         repr(t.arrival_s)]
        for t in trace
    ])


class TestTraceDeterminism:
    def test_same_seed_byte_identical(self):
        first = poisson_trace(64, 8.0, seed=42)
        second = poisson_trace(64, 8.0, seed=42)
        assert first == second
        assert trace_fingerprint(first) == trace_fingerprint(second)

    def test_different_seeds_differ(self):
        assert trace_fingerprint(poisson_trace(64, 8.0, seed=0)) \
            != trace_fingerprint(poisson_trace(64, 8.0, seed=1))

    def test_generation_is_isolated_from_global_random(self):
        """Interleaving draws from the global RNG must not perturb the
        trace — seeded ``random.Random`` instances only."""
        import random

        first = poisson_trace(16, 8.0, seed=7)
        random.random()
        second = poisson_trace(16, 8.0, seed=7)
        assert trace_fingerprint(first) == trace_fingerprint(second)


class TestEngineDeterminism:
    def test_two_runs_identical_report_dict(self):
        trace = poisson_trace(24, 20.0, seed=3)
        first = ServingEngine(GPT2, num_devices=2).run(trace)
        second = ServingEngine(GPT2, num_devices=2).run(trace)
        assert json.dumps(first.to_dict(), sort_keys=True) \
            == json.dumps(second.to_dict(), sort_keys=True)

    def test_same_engine_rerun_identical(self):
        trace = poisson_trace(12, 20.0, seed=5)
        engine = ServingEngine(GPT2, num_devices=1)
        assert json.dumps(engine.run(trace).to_dict()) \
            == json.dumps(engine.run(trace).to_dict())

    def test_preemption_path_deterministic(self):
        """The memory-pressure regime — preemption victim choice, requeue
        order, block claims — must replay byte-identically."""
        trace = poisson_trace(20, 100.0, seed=0,
                              input_choices=(128,), output_choices=(128,))
        kv = KVCacheConfig.from_capacity_mb(
            20.0, high_watermark=0.90, low_watermark=0.70)
        scheduler = SchedulerConfig(max_batch_size=8)
        first = ServingEngine(GPT2, scheduler_config=scheduler,
                              kv_config=kv).run(trace)
        second = ServingEngine(GPT2, scheduler_config=scheduler,
                               kv_config=kv).run(trace)
        assert first.preemptions >= 1, "regime check: pressure expected"
        assert json.dumps(first.to_dict(), sort_keys=True) \
            == json.dumps(second.to_dict(), sort_keys=True)


class TestCliSeedPlumbing:
    """The single --seed flag must make whole CLI reports a pure function
    of their arguments — every trace generator draws from it, none from a
    private default."""

    def serve_sim_report(self, tmp_path, seed, name):
        from repro.cli import main

        path = tmp_path / name
        assert main(["serve-sim", "--requests", "8", "--arrival-rate", "30",
                     "--seed", str(seed), "--no-baseline",
                     "--json", str(path)]) == 0
        return path.read_bytes()

    def serve_cluster_report(self, tmp_path, seed, name, trace="poisson"):
        from repro.cli import main

        path = tmp_path / name
        assert main(["serve-cluster", "--requests", "12", "--replicas", "2",
                     "--trace", trace, "--arrival-rate", "20",
                     "--seed", str(seed), "--json", str(path)]) == 0
        return path.read_bytes()

    def test_serve_sim_seed_identical_reports(self, tmp_path):
        first = self.serve_sim_report(tmp_path, 7, "a.json")
        second = self.serve_sim_report(tmp_path, 7, "b.json")
        assert first == second
        assert first != self.serve_sim_report(tmp_path, 8, "c.json")

    def test_serve_cluster_seed_identical_reports(self, tmp_path):
        first = self.serve_cluster_report(tmp_path, 7, "a.json")
        second = self.serve_cluster_report(tmp_path, 7, "b.json")
        assert first == second
        assert first != self.serve_cluster_report(tmp_path, 8, "c.json")

    def test_serve_cluster_seed_reaches_every_generator(self, tmp_path):
        for trace in ("diurnal", "flash_crowd"):
            first = self.serve_cluster_report(tmp_path, 3, "a.json", trace)
            second = self.serve_cluster_report(tmp_path, 3, "b.json", trace)
            assert first == second
            assert first != self.serve_cluster_report(tmp_path, 4, "c.json",
                                                      trace)

    def serve_cluster_kernel_report(self, tmp_path, seed, name, *extra):
        from repro.cli import main

        path = tmp_path / name
        fleet = [] if "--disaggregate" in extra else ["--replicas", "2"]
        assert main(["serve-cluster", "--requests", "12", *fleet,
                     "--arrival-rate", "20", "--seed", str(seed),
                     *extra, "--json", str(path)]) == 0
        return path.read_bytes()

    def test_event_kernel_cli_reports_are_deterministic(self, tmp_path):
        """serve-cluster under the event kernel: same seed → byte-identical
        JSON, run to run."""
        first = self.serve_cluster_kernel_report(tmp_path, 11, "a.json")
        second = self.serve_cluster_kernel_report(tmp_path, 11, "b.json")
        assert first == second

    def test_event_kernel_cli_disaggregated_deterministic(self, tmp_path):
        """The disaggregated path (KV migrations through TRANSFER_LANDED
        events) stays byte-deterministic under the event kernel too."""
        disagg = ("--disaggregate", "--prefill-replicas", "1",
                  "--decode-replicas", "2")
        first = self.serve_cluster_kernel_report(
            tmp_path, 5, "a.json", *disagg)
        second = self.serve_cluster_kernel_report(
            tmp_path, 5, "b.json", *disagg)
        assert first == second


class TestKernelEquivalence:
    """The event kernel and the step-loop reference emit byte-identical
    reports for the fleets the serve-cluster determinism tests run (the
    configs those commands build, default scheduler included)."""

    @staticmethod
    def report(kernel, seed, **fleet):
        from repro.serving import ServingCluster

        trace = poisson_trace(12, 20.0, seed=seed)
        cluster = ServingCluster(GPT2, kernel=kernel,
                                 scheduler_config=SchedulerConfig(), **fleet)
        return json.dumps(cluster.run(trace).to_dict(), sort_keys=True)

    def test_event_kernel_matches_step_kernel(self):
        fleet = dict(initial_replicas=2)
        assert self.report("event", 11, **fleet) \
            == self.report("step", 11, **fleet)

    def test_disaggregated_event_kernel_matches_step_kernel(self):
        from repro.serving import DisaggregationConfig

        fleet = dict(initial_replicas=1, disaggregation=DisaggregationConfig(
            prefill_replicas=1, decode_replicas=2))
        assert self.report("event", 5, **fleet) \
            == self.report("step", 5, **fleet)
