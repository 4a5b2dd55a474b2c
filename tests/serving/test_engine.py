"""Tests for the continuous-batching engine, driven as a fixed fleet.

A ``ServingCluster`` with ``initial_replicas=n`` and no autoscaler is the
``n``-device serving simulator: each replica runs one ``DeviceWorker``.
"""

import pytest

from repro.eval.serving import compare_with_sequential, run_sequential_baseline
from repro.models.config import GPT2
from repro.models.workload import Workload
from repro.runtime.session import InferenceSession
from repro.serving import (
    SchedulerConfig,
    ServingCluster,
    burst_trace,
    poisson_trace,
    trace_from_specs,
)


def devices(report):
    """Every replica's device record, in replica order."""
    return [device for replica in report.replica_reports
            for device in replica.devices]


class TestCompletion:
    def test_all_requests_complete(self):
        trace = poisson_trace(16, 20.0, seed=3)
        report = ServingCluster(GPT2, initial_replicas=2).run(trace)
        assert report.completed == 16
        assert report.rejected == 0
        assert report.total_output_tokens == sum(
            t.workload.output_len for t in trace)

    def test_empty_trace(self):
        report = ServingCluster(GPT2).run([])
        assert report.completed == 0
        assert report.fleet_tokens_per_s == 0.0

    def test_timestamps_are_ordered(self):
        trace = poisson_trace(8, 10.0, seed=1)
        report = ServingCluster(GPT2).run(trace)
        assert report.completed == 8
        # Percentile invariants over the recorded distributions.
        assert report.ttft.p50 <= report.ttft.p95 <= report.ttft.p99
        assert report.e2e_latency.max >= report.e2e_latency.p99

    def test_deterministic_given_seed(self):
        trace = poisson_trace(12, 10.0, seed=7)
        first = ServingCluster(GPT2, initial_replicas=2).run(trace)
        second = ServingCluster(GPT2, initial_replicas=2).run(trace)
        assert first.makespan_s == second.makespan_s
        assert first.ttft == second.ttft

    def test_run_is_repeatable_on_one_cluster(self):
        """Repeated run() calls on the same cluster measure the same system
        (each run starts from a cold, re-packed device)."""
        trace = burst_trace([Workload(8, 4)])
        cluster = ServingCluster(GPT2, initial_replicas=1, cold_start=True)
        first = cluster.run(trace)
        second = cluster.run(trace)
        assert second.makespan_s == pytest.approx(first.makespan_s)
        assert devices(second)[0].packing_s == pytest.approx(
            devices(first)[0].packing_s)
        assert devices(second)[0].packing_s > 0


class TestSharding:
    def test_round_robin_across_devices(self):
        trace = burst_trace([Workload(8, 4) for _ in range(6)])
        report = ServingCluster(GPT2, initial_replicas=3).run(trace)
        assert [d.requests_served for d in devices(report)] == [2, 2, 2]

    def test_invalid_device_count_rejected(self):
        with pytest.raises(ValueError, match="initial_replicas"):
            ServingCluster(GPT2, initial_replicas=0)

    def test_two_devices_faster_than_one(self):
        trace = burst_trace([Workload(32, 32) for _ in range(8)])
        one = ServingCluster(GPT2, initial_replicas=1).run(trace)
        two = ServingCluster(GPT2, initial_replicas=2).run(trace)
        assert two.makespan_s < one.makespan_s


class TestAdmissionControl:
    def test_oversized_request_rejected_not_fatal(self):
        """[2000:64] outgrows GPT-2's 1024 positions: the session rejects
        it at admission and the run carries on."""
        trace = trace_from_specs([(0.0, "[8:8]"), (0.1, "[2000:64]"),
                                  (0.2, "[8:8]")])
        assert trace[1].workload.total_tokens > GPT2.max_seq_len
        report = ServingCluster(GPT2).run(trace)
        assert report.completed == 2
        assert report.rejected == 1

    def test_single_request_matches_inference_session(self):
        """Alone in the system, a request sees exactly the session's timing."""
        workload = Workload(32, 16)
        report = ServingCluster(GPT2, initial_replicas=1).run(
            burst_trace([workload]))
        expected = InferenceSession(GPT2).generate(workload)
        assert report.e2e_latency.max == pytest.approx(expected.total_seconds)
        assert report.ttft.max == pytest.approx(expected.ttft_s)

    def test_cold_start_charges_packing(self):
        trace = burst_trace([Workload(8, 4)])
        warm = ServingCluster(GPT2, initial_replicas=1).run(trace)
        cold = ServingCluster(GPT2, initial_replicas=1,
                              cold_start=True).run(trace)
        # Packing (several seconds) lands on the first request's TTFT.
        packing = devices(cold)[0].packing_s
        assert packing > 1.0
        assert cold.ttft.max == pytest.approx(warm.ttft.max + packing)
        # The cold fleet is routable from time zero; only its devices wait.
        assert [r["ready_s"] for r in cold.to_dict()["replicas"]] == [0.0]
        assert cold.manifest["cold_start"] is True
        assert "cold_start" not in warm.manifest

    def test_cold_start_charges_every_initial_device(self):
        trace = burst_trace([Workload(8, 4), Workload(8, 4)])
        warm = ServingCluster(GPT2, initial_replicas=2).run(trace)
        cold = ServingCluster(GPT2, initial_replicas=2,
                              cold_start=True).run(trace)
        packing = devices(cold)[0].packing_s
        assert [d.requests_served for d in devices(cold)] == [1, 1]
        assert cold.ttft.p50 == pytest.approx(warm.ttft.p50 + packing)
        assert cold.ttft.max == pytest.approx(warm.ttft.max + packing)


class TestBatchingAdvantage:
    def test_continuous_batching_beats_sequential_baseline(self):
        trace = poisson_trace(24, 30.0, seed=0)
        report = ServingCluster(
            GPT2, initial_replicas=1,
            scheduler_config=SchedulerConfig(max_batch_size=8)).run(trace)
        baseline = run_sequential_baseline(GPT2, trace)
        comparison = compare_with_sequential(report, baseline)
        assert comparison.speedup > 1.0

    def test_sparse_traffic_speedup_is_roughly_one(self):
        """When both systems just wait for arrivals, the comparison must
        report parity — not punish the engine for idling."""
        trace = poisson_trace(8, 0.5, seed=0)
        report = ServingCluster(GPT2, initial_replicas=1).run(trace)
        comparison = compare_with_sequential(
            report, run_sequential_baseline(GPT2, trace))
        assert comparison.speedup == pytest.approx(1.0, rel=0.2)

    def test_queue_builds_up_under_overload(self):
        # Arrivals far faster than service: the admission queue must grow.
        trace = poisson_trace(32, 1000.0, seed=0)
        report = ServingCluster(
            GPT2, initial_replicas=1,
            scheduler_config=SchedulerConfig(max_batch_size=4)).run(trace)
        assert report.replica_reports[0].peak_queue_depth > 0
        assert report.completed == 32

    def test_queue_depth_consistent_with_queue_wait(self):
        """If requests measurably waited, the depth timeline must show it
        (requests dispatched before a step count as queued, not just the
        swept waiting set)."""
        trace = poisson_trace(32, 200.0, seed=0)
        report = ServingCluster(
            GPT2, initial_replicas=1,
            scheduler_config=SchedulerConfig(max_batch_size=2)).run(trace)
        assert report.queue_wait.p50 > 0
        assert report.replica_reports[0].peak_queue_depth >= 2


class TestGoldenReport:
    """Every step is priced by ``InferenceSession.execute_step`` from the
    step's totals; the one-device report for a fixed trace is pinned to its
    recorded sha256 in ``tests/pins.json``, so a hot-path rewrite cannot
    move a simulated bit unnoticed."""

    def test_report_matches_recorded_digest(self, pin):
        import hashlib
        import json

        trace = poisson_trace(48, 120.0, seed=5,
                              input_choices=(32, 64),
                              output_choices=(16, 32))
        report = ServingCluster(GPT2, initial_replicas=1).run(trace)
        pin("golden", hashlib.sha256(json.dumps(report.to_dict(),
                                                sort_keys=True)
                                     .encode()).hexdigest())
