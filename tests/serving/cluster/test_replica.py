"""Tests for a fleet member's lifecycle and load signals: the
``DeviceWorker`` the cluster holds once per device."""

import math

import pytest

from repro.models.config import GPT2
from repro.runtime.session import InferenceSession
from repro.serving import (
    DeviceWorker,
    KVCacheConfig,
    SchedulerConfig,
    ServingCluster,
    ServingRequest,
)
from repro.serving.cluster import ReplicaState
from repro.serving.workload_gen import trace_from_specs


def make_request(request_id=0, arrival_s=0.0, label="[16:8]"):
    timed = trace_from_specs([(arrival_s, label)])[0]
    return ServingRequest(request_id, timed.workload, arrival_s)


def make_worker(device_id=0, **kwargs):
    return DeviceWorker(device_id, InferenceSession(GPT2), SchedulerConfig(),
                        **kwargs)


class TestLifecycle:
    def test_initial_fleet_replica_is_active_immediately(self):
        worker = make_worker(warmup_s=0.0)
        assert worker.state is ReplicaState.ACTIVE
        assert worker.routable
        assert worker.ready_s == 0.0

    def test_scaled_up_replica_warms_before_serving(self):
        worker = make_worker(1, spawned_s=2.0, warmup_s=1.5)
        assert worker.state is ReplicaState.WARMING
        assert not worker.routable
        assert worker.ready_s == 3.5
        assert not worker.activate_if_ready(3.0)
        assert worker.activate_if_ready(3.5)
        assert worker.state is ReplicaState.ACTIVE

    def test_default_warmup_is_parameter_packing_time(self):
        worker = make_worker(spawned_s=1.0, warmup_s=None)
        assert worker.warmup_s == pytest.approx(worker.packing_s)
        assert worker.ready_s == pytest.approx(1.0 + worker.packing_s)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            make_worker(warmup_s=-1.0)

    def test_kv_pool_smaller_than_one_block_fails_at_construction(self):
        # GPT-2 KV is ~49 KB/token at A8: 0.001 MB holds no 16-token block.
        with pytest.raises(ValueError, match="holds no"):
            make_worker(kv_config=KVCacheConfig.from_capacity_mb(0.001))

    def test_policies_resolve_without_an_engine(self):
        worker = make_worker(preemption="largest_kv")
        assert worker.preemption.name == "largest_kv"
        with pytest.raises(ValueError, match="preemption"):
            make_worker(preemption="oldest")

    def test_cluster_spawns_the_default_scheduler(self):
        cluster = ServingCluster(GPT2)
        cluster.run(trace_from_specs([(0.0, "[16:8]")]))
        assert cluster.replicas[0].scheduler.config == SchedulerConfig()

    def test_clock_starts_at_readiness(self):
        worker = make_worker(spawned_s=4.0, warmup_s=2.0)
        assert worker.clock == pytest.approx(6.0)

    def test_warming_replica_rejects_submissions(self):
        worker = make_worker(warmup_s=5.0)
        with pytest.raises(RuntimeError, match="warming"):
            worker.submit(make_request())


class TestDrain:
    def test_drain_finishes_submitted_work_then_stops(self):
        worker = make_worker(warmup_s=0.0)
        worker.submit(make_request())
        worker.drain(0.0)
        assert worker.state is ReplicaState.DRAINING
        with pytest.raises(RuntimeError, match="draining"):
            worker.submit(make_request(1))
        while worker.step():
            pass
        assert worker.state is ReplicaState.STOPPED
        assert worker.stopped_s == worker.clock
        report = worker.report("gpt2")
        assert report.completed == 1

    def test_drain_of_idle_replica_stops_immediately(self):
        worker = make_worker(warmup_s=0.0)
        worker.drain(3.0)
        assert worker.state is ReplicaState.STOPPED
        assert worker.stopped_s == 3.0

    def test_stop_releases_kv_but_keeps_report_counters(self):
        kv = KVCacheConfig.from_capacity_mb(64.0)
        worker = make_worker(kv_config=kv, warmup_s=0.0)
        worker.submit(make_request())
        worker.drain(0.0)
        while worker.step():
            pass
        assert worker.manager is None
        stats = worker.device_stats()
        assert stats.kv_blocks_total > 0
        assert stats.kv_peak_blocks > 0

    def test_run_until_stops_a_draining_worker(self):
        """Four equal requests turn steady and finish in one ``advance``
        segment, so no ``step()`` call sees the worker run dry."""
        kv = KVCacheConfig.from_capacity_mb(64.0)
        worker = make_worker(kv_config=kv, warmup_s=0.0)
        for request_id in range(4):
            worker.submit(make_request(request_id, label="[24:64]"))
        worker.drain(0.0)
        worker.run_until(math.inf)
        assert not worker.has_work
        assert worker.state is ReplicaState.STOPPED
        assert worker.stopped_s == worker.clock
        assert worker.manager is None
        assert worker.device_stats().kv_peak_blocks > 0

    def test_stop_refuses_while_work_in_flight(self):
        kv = KVCacheConfig.from_capacity_mb(64.0)
        worker = make_worker(kv_config=kv, warmup_s=0.0)
        worker.submit(make_request())
        worker.step()
        with pytest.raises(RuntimeError, match="drain it dry"):
            worker.stop(worker.clock)
        # The pool survived the refused stop; the batch keeps running.
        assert worker.manager is not None
        assert worker.state is ReplicaState.ACTIVE
        while worker.step():
            pass

    def test_drain_is_idempotent(self):
        worker = make_worker(warmup_s=0.0)
        worker.drain(1.0)
        worker.drain(2.0)
        assert worker.stopped_s == 1.0


class TestLoadSignals:
    def test_queue_and_running_counts(self):
        worker = make_worker(warmup_s=0.0)
        worker.submit(make_request(0))
        worker.submit(make_request(1))
        assert worker.queue_depth == 2
        assert not worker.running
        assert worker.in_system == 2
        worker.step()
        assert worker.in_system == 2  # admitted into the batch, still here

    def test_report_completes_all_requests(self):
        worker = make_worker(warmup_s=0.0)
        for i in range(3):
            worker.submit(make_request(i, arrival_s=0.05 * i))
        while worker.step():
            pass
        report = worker.report("gpt2")
        assert report.completed == 3
        assert len(report.devices) == 1
        assert report.devices[0].device_id == 0
