"""Integration tests for the cluster orchestration loop."""

import json
import math

import pytest

from repro.models.config import GPT2
from repro.runtime.session import InferenceSession
from repro.serving import DeviceWorker, KVCacheConfig, SchedulerConfig
from repro.serving.cluster import (
    Autoscaler,
    AutoscalerConfig,
    ReplicaState,
    ServingCluster,
)
from repro.serving.metrics import build_report
from repro.serving.policies.preemption import resolve_preemption_policy
from repro.serving.request import requests_from_trace
from repro.serving.workload_gen import (
    flash_crowd_trace,
    poisson_trace,
    shared_prefix_trace,
)


def worker_to_completion(trace) -> dict:
    """The reference loop: one ``DeviceWorker`` with the whole trace
    submitted up front and stepped to completion, folded into a one-device
    report dict without its queue-depth fields.

    Submitting up front lets the worker's post-step queue samples count
    requests that arrive during a step, which a cluster dispatches only
    after the step returns; every scheduling decision is the same."""
    worker = DeviceWorker(0, InferenceSession(GPT2), SchedulerConfig(),
                          resolve_preemption_policy("youngest"))
    requests = requests_from_trace(trace)
    for request in requests:
        worker.submit(request)
    worker.run_until(math.inf)
    payload = build_report(GPT2.name, requests, [worker.device_stats()],
                           worker.preemption_events).to_dict()
    for key in ("mean_queue_depth", "peak_queue_depth"):
        del payload[key]
    return payload


def single_replica_dict(trace) -> dict:
    """A one-replica cluster's replica report dict, queue depth dropped."""
    payload = ServingCluster(GPT2, initial_replicas=1).run(
        trace).replica_reports[0].to_dict()
    for key in ("mean_queue_depth", "peak_queue_depth"):
        del payload[key]
    return payload


class TestConstruction:
    def test_initial_replicas_validated(self):
        with pytest.raises(ValueError, match="initial_replicas"):
            ServingCluster(GPT2, initial_replicas=0)

    def test_initial_size_must_fit_autoscaler_bounds(self):
        with pytest.raises(ValueError, match="outside the autoscaler"):
            ServingCluster(GPT2, initial_replicas=8,
                           autoscaler=AutoscalerConfig(max_replicas=4))

    def test_autoscaler_takes_only_a_config(self):
        with pytest.raises(TypeError, match="AutoscalerConfig"):
            ServingCluster(GPT2,
                           autoscaler=Autoscaler(AutoscalerConfig()))

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            ServingCluster(GPT2, router="sticky")


class TestFixedFleet:
    def test_single_replica_matches_worker_loop_decisions(self):
        """A 1-replica cluster reproduces its device worker stepped to
        completion over a pre-submitted trace, decision for decision:
        identical per-request timing, identical device stats.  Only the
        queue-depth *sampling* may differ (see worker_to_completion)."""
        trace = poisson_trace(32, 20.0, seed=1)
        assert json.dumps(worker_to_completion(trace), sort_keys=True) \
            == json.dumps(single_replica_dict(trace), sort_keys=True)

    def test_two_replicas_increase_fleet_throughput(self):
        trace = poisson_trace(32, 40.0, seed=0)
        one = ServingCluster(GPT2, initial_replicas=1).run(trace)
        two = ServingCluster(GPT2, initial_replicas=2).run(trace)
        assert one.completed == two.completed == 32
        assert two.fleet_tokens_per_s > 1.5 * one.fleet_tokens_per_s

    def test_all_replicas_carry_traffic_under_round_robin(self):
        trace = poisson_trace(24, 40.0, seed=0)
        report = ServingCluster(GPT2, initial_replicas=3,
                                router="round_robin").run(trace)
        assert [r.completed for r in report.replica_reports] == [8, 8, 8]

    def test_least_queue_balances_heterogeneous_lengths(self):
        trace = poisson_trace(32, 40.0, seed=2)
        report = ServingCluster(GPT2, initial_replicas=2,
                                router="least_queue").run(trace)
        assert report.completed == 32
        assert all(r.completed > 0 for r in report.replica_reports)

    def test_fixed_fleet_has_no_lifecycle_churn(self):
        trace = poisson_trace(16, 20.0, seed=0)
        report = ServingCluster(GPT2, initial_replicas=2).run(trace)
        assert not report.autoscaled
        assert report.peak_replicas == 2
        assert all(life.stopped_s is None for life in report.lifecycles)
        assert report.replica_seconds > 0


class TestDeterminism:
    def test_rerun_byte_identical(self):
        trace = poisson_trace(24, 30.0, seed=3)
        first = ServingCluster(GPT2, initial_replicas=2,
                               router="least_queue").run(trace)
        second = ServingCluster(GPT2, initial_replicas=2,
                                router="least_queue").run(trace)
        assert json.dumps(first.to_dict(), sort_keys=True) \
            == json.dumps(second.to_dict(), sort_keys=True)

    def test_autoscaled_rerun_byte_identical(self):
        trace = flash_crowd_trace(40, 4.0, 60.0, burst_start_s=1.0,
                                  burst_duration_s=1.0, seed=0)
        def run():
            cluster = ServingCluster(
                GPT2, initial_replicas=1, router="least_queue",
                autoscaler=AutoscalerConfig(max_replicas=4,
                                            slo_ttft_s=0.5,
                                            warmup_s=0.2))
            return cluster.run(trace)
        assert json.dumps(run().to_dict(), sort_keys=True) \
            == json.dumps(run().to_dict(), sort_keys=True)

    def test_same_cluster_rerun_identical(self):
        """run() rebuilds the fleet AND resets router state.  The request
        count is odd on purpose: a leaked round-robin counter would start
        run two on the other replica (13 % 2 == 1) and shift every
        dispatch."""
        trace = poisson_trace(13, 20.0, seed=5)
        cluster = ServingCluster(GPT2, initial_replicas=2)
        assert json.dumps(cluster.run(trace).to_dict()) \
            == json.dumps(cluster.run(trace).to_dict())

    def test_prefix_affinity_pins_reset_between_runs(self):
        trace = shared_prefix_trace(9, prefix_len=64, unique_len=16,
                                    output_len=16, interval_s=0.05,
                                    num_groups=3)
        kv = KVCacheConfig.from_capacity_mb(256.0, enable_prefix_cache=True)
        cluster = ServingCluster(GPT2, initial_replicas=2,
                                 router="prefix_affinity", kv_config=kv)
        assert json.dumps(cluster.run(trace).to_dict(), sort_keys=True) \
            == json.dumps(cluster.run(trace).to_dict(), sort_keys=True)

    def test_same_autoscaled_cluster_rerun_identical(self):
        """The autoscaler's cooldown clock and audit trail must reset per
        run, or a reused cluster's second run would never scale (the last
        action of run one sits 'in the future' of run two's clock)."""
        trace = poisson_trace(40, 30.0, seed=0)
        cluster = ServingCluster(
            GPT2, initial_replicas=1, router="least_queue",
            autoscaler=AutoscalerConfig(max_replicas=4, warmup_s=0.2,
                                        control_interval_s=0.2,
                                        cooldown_s=0.2))
        first = cluster.run(trace)
        second = cluster.run(trace)
        assert first.peak_replicas > 1
        assert json.dumps(first.to_dict(), sort_keys=True) \
            == json.dumps(second.to_dict(), sort_keys=True)


class TestPrefixAffinityRouting:
    def kv(self):
        return KVCacheConfig.from_capacity_mb(256.0,
                                              enable_prefix_cache=True)

    def run(self, router):
        trace = shared_prefix_trace(18, prefix_len=96, unique_len=16,
                                    output_len=16, interval_s=0.05,
                                    num_groups=3)
        cluster = ServingCluster(GPT2, initial_replicas=2, router=router,
                                 kv_config=self.kv())
        return cluster.run(trace)

    def test_affinity_raises_prefix_hit_rate_over_round_robin(self):
        affinity = self.run("prefix_affinity")
        scattered = self.run("round_robin")
        assert affinity.completed == scattered.completed == 18
        assert affinity.prefix_hit_rate > scattered.prefix_hit_rate
        # Pinning a group to one replica means its shared prefix is
        # prefilled once per group, not once per (group, replica) pair.
        affinity_created = sum(r.shared_kv_blocks_created
                               for r in affinity.replica_reports)
        scattered_created = sum(r.shared_kv_blocks_created
                                for r in scattered.replica_reports)
        assert affinity_created < scattered_created

    def test_groups_spread_across_replicas(self):
        report = self.run("prefix_affinity")
        assert all(r.completed > 0 for r in report.replica_reports)


class TestAutoscaling:
    def heavy_trace(self):
        return poisson_trace(60, 25.0, seed=0)

    def autoscaler(self, **kwargs):
        defaults = dict(min_replicas=1, max_replicas=4, slo_ttft_s=1.0,
                        control_interval_s=0.2, cooldown_s=0.2,
                        warmup_s=0.2)
        defaults.update(kwargs)
        return AutoscalerConfig(**defaults)

    def test_scales_up_under_pressure(self):
        report = ServingCluster(GPT2, initial_replicas=1,
                                router="least_queue",
                                autoscaler=self.autoscaler()
                                ).run(self.heavy_trace())
        assert report.autoscaled
        assert report.peak_replicas > 1
        assert report.completed == 60
        provisioned = [s.provisioned for s in report.timeline]
        assert max(provisioned) > provisioned[0]

    def test_autoscaled_beats_fixed_single_replica_latency(self):
        trace = self.heavy_trace()
        fixed = ServingCluster(GPT2, initial_replicas=1).run(trace)
        scaled = ServingCluster(GPT2, initial_replicas=1,
                                router="least_queue",
                                autoscaler=self.autoscaler()).run(trace)
        assert scaled.ttft.p95 < fixed.ttft.p95
        assert scaled.fleet_tokens_per_s > fixed.fleet_tokens_per_s

    def burst_with_tail(self):
        """A flash crowd followed by a long light tail, so the fleet has
        both a reason to grow and room to drain back down."""
        return flash_crowd_trace(90, 2.0, 50.0, burst_start_s=1.0,
                                 burst_duration_s=1.0, seed=0)

    def test_drains_back_down_after_burst(self):
        report = ServingCluster(GPT2, initial_replicas=1,
                                router="least_queue",
                                autoscaler=self.autoscaler()
                                ).run(self.burst_with_tail())
        assert report.completed == 90
        assert report.peak_replicas > 1
        assert any(life.stopped_s is not None for life in report.lifecycles)

    def test_drained_replicas_finish_their_work(self):
        cluster = ServingCluster(GPT2, initial_replicas=1,
                                 router="least_queue",
                                 autoscaler=self.autoscaler())
        report = cluster.run(self.burst_with_tail())
        assert report.completed == report.num_requests
        stopped = [replica for replica in cluster.replicas
                   if replica.state is ReplicaState.STOPPED]
        assert stopped, "burst capacity should have drained away"
        for replica in cluster.replicas:
            assert not replica.has_work
        for replica in stopped:
            assert replica.manager is None

    def test_replica_seconds_cheaper_than_peak_everywhere(self):
        """Autoscaling's point: peak capacity only while it is needed."""
        trace = self.burst_with_tail()
        scaled = ServingCluster(GPT2, initial_replicas=1,
                                router="least_queue",
                                autoscaler=self.autoscaler()).run(trace)
        fixed = ServingCluster(GPT2,
                               initial_replicas=scaled.peak_replicas
                               ).run(trace)
        assert scaled.replica_seconds < fixed.replica_seconds

    def test_unused_warmup_does_not_inflate_replica_seconds(self):
        """A replica spawned near the end of the trace with a long warm-up
        never activates; its future ready_s clock must not drag end_s (and
        with it every replica's replica-seconds) past the last real
        activity."""
        trace = poisson_trace(20, 50.0, seed=0)
        report = ServingCluster(
            GPT2, initial_replicas=1, router="least_queue",
            autoscaler=self.autoscaler(max_replicas=2, warmup_s=100.0,
                                       control_interval_s=0.1,
                                       cooldown_s=0.1)).run(trace)
        assert report.completed == 20
        assert len(report.lifecycles) == 2, "regime check: spawn expected"
        assert report.lifecycles[1].stopped_s is None
        # The stillborn replica's ready_s (~100s) must not leak into end_s.
        assert report.end_s < 50.0
        assert report.replica_seconds < 2 * report.end_s

    def test_slo_attainment_reported(self):
        report = ServingCluster(GPT2, initial_replicas=2,
                                router="least_queue",
                                autoscaler=self.autoscaler(slo_ttft_s=2.0)
                                ).run(poisson_trace(20, 10.0, seed=0))
        assert report.slo_ttft_s == 2.0
        assert report.slo_attainment is not None
        assert 0.0 <= report.slo_attainment <= 1.0
        payload = report.to_dict()
        assert payload["slo"]["attained"] == report.slo_attained

    def test_no_slo_means_no_attainment_section(self):
        report = ServingCluster(GPT2, initial_replicas=1).run(
            poisson_trace(4, 10.0, seed=0))
        assert report.slo_attainment is None
        assert "slo" not in report.to_dict()


class TestEmptyTraces:
    def test_cluster_empty_trace(self):
        report = ServingCluster(GPT2, initial_replicas=2).run([])
        assert report.completed == 0
        assert report.num_requests == 0
        assert report.makespan_s == 0.0
        assert report.fleet_tokens_per_s == 0.0
        assert report.ttft.is_empty
        assert report.peak_replicas == 2

    def test_autoscaled_cluster_empty_trace(self):
        report = ServingCluster(GPT2, initial_replicas=1,
                                autoscaler=AutoscalerConfig()
                                ).run([])
        assert report.completed == 0
        assert report.slo_attainment is None  # no SLO configured

    def test_empty_trace_report_formats(self):
        report = ServingCluster(GPT2, initial_replicas=1).run([])
        text = report.format()
        assert "0/0 completed" in text
        assert "ttft        no samples" in text
        json.dumps(report.to_dict())


class TestReport:
    def test_to_dict_round_trips_through_json(self):
        trace = poisson_trace(12, 20.0, seed=0)
        report = ServingCluster(GPT2, initial_replicas=2).run(trace)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["completed"] == 12
        assert payload["fleet_tokens_per_s"] > 0
        assert len(payload["replicas"]) == 2
        assert payload["replica_count_timeline"][0]["active"] == 2

    def test_timeline_is_sorted(self):
        trace = flash_crowd_trace(40, 4.0, 50.0, burst_start_s=1.0,
                                  burst_duration_s=1.0, seed=0)
        report = ServingCluster(
            GPT2, initial_replicas=1, router="least_queue",
            autoscaler=AutoscalerConfig(max_replicas=3, warmup_s=0.2,
                                        control_interval_s=0.2,
                                        cooldown_s=0.2)).run(trace)
        times = [s.time_s for s in report.timeline]
        assert times == sorted(times)
