"""Edge cases, determinism and the one-line format of
:func:`repro.eval.serving.run_sweep` along each config axis it replaces:
KV capacity, policy stack, fleet shape and prefill/decode split (the
class-mix stacks are covered by the digest pins and the SLO benchmark)."""

import json

import pytest

from repro.eval.serving import class_mix_stacks, run_sweep
from repro.models.config import GPT2
from repro.models.workload import Workload
from repro.serving import (
    KVCacheConfig,
    SchedulerConfig,
    ServingEngine,
    burst_trace,
    poisson_trace,
    shared_prefix_trace,
)
from repro.serving.cluster import (
    AutoscalerConfig,
    DisaggregationConfig,
    ServingCluster,
)


def dumps(points):
    return [json.dumps(p.report.to_dict(), sort_keys=True) for p in points]


def capacities(*capacities_mb, **watermarks):
    """Capacity-axis variants; ``None`` is the unmanaged engine."""
    return {("unmanaged" if mb is None else f"{mb} MB"):
            ({} if mb is None else dict(
                kv_config=KVCacheConfig.from_capacity_mb(mb, **watermarks)))
            for mb in capacities_mb}


class TestCapacityAxis:
    def test_empty_trace(self):
        points = run_sweep(ServingEngine, GPT2, [], capacities(None, 64.0))
        assert len(points) == 2
        for point in points:
            assert point.report.num_requests == 0
            assert point.report.aggregate_tokens_per_s == 0.0
            assert point.report.preemptions == 0

    def test_single_request_trace(self):
        trace = burst_trace([Workload(32, 16)])
        points = run_sweep(ServingEngine, GPT2, trace,
                           capacities(None, 64.0))
        for point in points:
            assert point.report.completed == 1
            assert point.report.preemptions == 0
        # One request alone: managed and unmanaged timing agree exactly.
        assert points[0].report.makespan_s == points[1].report.makespan_s

    def test_capacity_below_one_block_raises(self):
        trace = burst_trace([Workload(32, 16)])
        # GPT-2 KV is ~49 KB/token at A8: 0.001 MB holds no 16-token block.
        with pytest.raises(ValueError, match="block"):
            run_sweep(ServingEngine, GPT2, trace, capacities(0.001))

    def test_no_variants(self):
        assert run_sweep(ServingEngine, GPT2, [], {}) == []

    def test_deterministic_under_fixed_seed(self):
        trace = poisson_trace(12, 100.0, seed=4,
                              input_choices=(64, 128), output_choices=(64,))
        variants = capacities(None, 48.0, 24.0,
                              high_watermark=0.9, low_watermark=0.7)
        assert dumps(run_sweep(ServingEngine, GPT2, trace, variants)) \
            == dumps(run_sweep(ServingEngine, GPT2, trace, variants))

    def test_format_columns_follow_the_report(self):
        trace = poisson_trace(12, 100.0, seed=4,
                              input_choices=(64, 128), output_choices=(64,))
        unmanaged, tight = run_sweep(ServingEngine, GPT2, trace,
                                     capacities(None, 24.0))
        assert unmanaged.format().lstrip().startswith("unmanaged:")
        assert "preemption" not in unmanaged.format()
        assert "kv util" not in unmanaged.format()
        assert tight.report.preemptions > 0
        assert f"{tight.report.preemptions} preemption(s)" in tight.format()
        assert "peak kv util" in tight.format()


class TestPolicyAxis:
    TRACE = shared_prefix_trace(8, prefix_len=96, unique_len=16,
                                output_len=16)

    @staticmethod
    def stack(prefix_cache=False, **kwargs):
        kwargs["kv_config"] = KVCacheConfig.from_capacity_mb(
            256.0, enable_prefix_cache=prefix_cache)
        return kwargs

    def test_one_point_per_variant_in_order(self):
        variants = {
            "fcfs": self.stack(),
            "shortest_prompt": self.stack(scheduler_config=SchedulerConfig(
                admission="shortest_prompt")),
            "least_loaded": self.stack(placement="least_loaded"),
            "prefix": self.stack(prefix_cache=True),
        }
        points = run_sweep(ServingEngine, GPT2, self.TRACE, variants)
        assert [p.label for p in points] == list(variants)
        for point in points:
            assert point.report.completed == 8
            assert point.report.aggregate_tokens_per_s > 0

    def test_prefix_cache_outperforms_default_on_shared_trace(self):
        default, cached = run_sweep(
            ServingEngine, GPT2, self.TRACE,
            {"fcfs": self.stack(), "prefix": self.stack(prefix_cache=True)})
        assert cached.report.aggregate_tokens_per_s \
            > default.report.aggregate_tokens_per_s
        assert cached.report.ttft.mean < default.report.ttft.mean
        assert cached.report.prefix_hit_rate > 0
        assert "prefix hit" in cached.format()
        assert "prefix hit" not in default.format()

    def test_empty_variant_matches_plain_engine(self):
        point, = run_sweep(ServingEngine, GPT2, self.TRACE, {"plain": {}})
        plain = ServingEngine(GPT2).run(self.TRACE)
        assert dumps([point]) == [json.dumps(plain.to_dict(), sort_keys=True)]

    def test_variant_overrides_common(self):
        point, = run_sweep(ServingEngine, GPT2, self.TRACE,
                           {"two": dict(num_devices=2)}, num_devices=1)
        assert point.report.num_devices == 2

    def test_deterministic(self):
        variants = {
            "priority": self.stack(
                scheduler_config=SchedulerConfig(admission="priority"),
                preemption="lowest_priority"),
            "prefix": self.stack(prefix_cache=True),
        }
        assert dumps(run_sweep(ServingEngine, GPT2, self.TRACE, variants)) \
            == dumps(run_sweep(ServingEngine, GPT2, self.TRACE, variants))


class TestFleetAxis:
    TRACE = poisson_trace(16, 40.0, seed=0)

    @staticmethod
    def fleets(*replica_counts, routers=("round_robin",)):
        return {f"{n}x {router}": dict(initial_replicas=n, router=router)
                for n in replica_counts for router in routers}

    def test_one_point_per_combination(self):
        points = run_sweep(
            ServingCluster, GPT2, self.TRACE,
            self.fleets(1, 2, routers=("round_robin", "least_queue")))
        assert [p.label for p in points] == [
            "1x round_robin", "1x least_queue",
            "2x round_robin", "2x least_queue"]
        for point in points:
            assert point.report.completed == 16
            assert point.report.fleet_tokens_per_s > 0

    def test_more_replicas_raise_fleet_throughput(self):
        one, two = run_sweep(ServingCluster, GPT2, self.TRACE,
                             self.fleets(1, 2))
        assert two.report.fleet_tokens_per_s \
            > 1.5 * one.report.fleet_tokens_per_s

    def test_fixed_fleet_format(self):
        line = run_sweep(ServingCluster, GPT2, self.TRACE,
                         self.fleets(2))[0].format()
        assert "tok/s" in line
        # No autoscaler: no replica-seconds or attainment column.
        assert "replica-s" not in line and "slo" not in line

    def test_autoscaled_fleet_reports_attainment(self):
        point, = run_sweep(
            ServingCluster, GPT2, self.TRACE, self.fleets(1),
            autoscaler=AutoscalerConfig(max_replicas=2, warmup_s=0.2,
                                        slo_ttft_s=5.0))
        assert point.report.slo_attainment is not None
        assert "slo" in point.format() and "replica-s" in point.format()

    def test_tracer_attaches_to_every_point(self):
        from repro.serving import Tracer

        points = run_sweep(ServingCluster, GPT2, self.TRACE,
                           self.fleets(1, 2), tracer=Tracer())
        assert all(p.report.telemetry is not None for p in points)

    def test_deterministic(self):
        variants = self.fleets(2, routers=("least_queue",))
        assert dumps(run_sweep(ServingCluster, GPT2, self.TRACE, variants)) \
            == dumps(run_sweep(ServingCluster, GPT2, self.TRACE, variants))

    def test_empty_trace(self):
        for point in run_sweep(ServingCluster, GPT2, [], self.fleets(1, 2)):
            assert point.report.completed == 0
            assert point.report.fleet_tokens_per_s == 0.0

    def test_bad_variant_fails_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(ServingCluster, "run",
                            lambda self, trace: runs.append(self))
        with pytest.raises(ValueError, match="initial_replicas"):
            run_sweep(ServingCluster, GPT2, self.TRACE,
                      {**self.fleets(1), "empty": dict(initial_replicas=0)})
        assert runs == []


class TestSplitAxis:
    def trace(self, num=16):
        return poisson_trace(num, 30.0, seed=0, input_choices=(32, 64),
                             output_choices=(96, 128))

    @staticmethod
    def split(prefill, decode, **kwargs):
        return dict(disaggregation=DisaggregationConfig(prefill, decode,
                                                        **kwargs))

    def test_unified_and_split_points(self):
        unified, split = run_sweep(
            ServingCluster, GPT2, self.trace(),
            {"unified x2": dict(initial_replicas=2),
             "1p + 1d": self.split(1, 1)})
        assert not unified.report.disaggregated
        assert split.report.disaggregated
        assert unified.report.completed == split.report.completed == 16
        assert split.report.kv_migrations == 16
        assert "migration" not in unified.format()
        assert "16 migration(s)" in split.format()

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError, match="decode_replicas"):
            run_sweep(ServingCluster, GPT2, self.trace(4),
                      {"bad": self.split(1, 0)})
        with pytest.raises(ValueError, match="prefill_replicas"):
            run_sweep(ServingCluster, GPT2, self.trace(4),
                      {"bad": self.split(-1, 2)})

    def test_hybrid_caps_prefill_on_a_colocated_fleet(self):
        hybrid, = run_sweep(
            ServingCluster, GPT2, self.trace(),
            {"hybrid x2": dict(initial_replicas=2,
                               scheduler_config=SchedulerConfig(
                                   prefill_token_cap=48))})
        assert not hybrid.report.disaggregated
        assert hybrid.report.completed == 16

    def test_streamed_split_reaches_the_cluster(self):
        mono, streamed = run_sweep(
            ServingCluster, GPT2, self.trace(),
            {"mono": self.split(1, 1, kv_transfer_gbs=0.1),
             "streamed": self.split(1, 1, kv_transfer_gbs=0.1,
                                    kv_stream_chunks=6)})
        payload = streamed.report.to_dict()["disaggregation"]
        assert payload["kv_streaming"]["chunks_per_migration"] == 6
        assert "kv_streaming" not in mono.report.to_dict()["disaggregation"]
        assert streamed.report.kv_bytes_transferred \
            == mono.report.kv_bytes_transferred

    def test_transfer_bandwidth_reaches_the_cluster(self):
        fast, slow = run_sweep(
            ServingCluster, GPT2, self.trace(),
            {"fast": self.split(1, 1, kv_transfer_gbs=1000.0),
             "slow": self.split(1, 1, kv_transfer_gbs=0.1)})
        assert slow.report.kv_transfer_seconds \
            > 100 * fast.report.kv_transfer_seconds

    def test_empty_trace(self):
        for point in run_sweep(ServingCluster, GPT2, [],
                               {"unified x2": dict(initial_replicas=2),
                                "1p + 1d": self.split(1, 1)}):
            assert point.report.num_requests == 0
            assert point.report.kv_migrations == 0


def test_class_mix_stacks_format_their_attainment():
    trace = poisson_trace(24, 45.0, seed=7,
                          slo_class_mix="interactive=2,batch=1",
                          input_choices=(32, 64), output_choices=(16, 32))
    stacks = class_mix_stacks()
    assert list(stacks) == ["fcfs", "priority", "score"]
    for point in run_sweep(ServingCluster, GPT2, trace, stacks,
                           initial_replicas=2):
        assert point.report.class_weighted_attainment is not None
        assert "weighted attainment" in point.format()
        assert "Jain" in point.format()
    classless, = run_sweep(ServingCluster, GPT2, poisson_trace(4, 10.0),
                           {"plain": {}})
    assert "Jain" not in classless.format()
