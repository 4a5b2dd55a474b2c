"""Tests for the EngineReplica lifecycle wrapper."""

import pytest

from repro.models.config import GPT2
from repro.serving import KVCacheConfig, SchedulerConfig, ServingRequest
from repro.serving.cluster import EngineReplica, ReplicaState
from repro.serving.workload_gen import trace_from_specs


def make_request(request_id=0, arrival_s=0.0, label="[16:8]"):
    timed = trace_from_specs([(arrival_s, label)])[0]
    return ServingRequest(request_id, timed.workload, arrival_s)


class TestLifecycle:
    def test_initial_fleet_replica_is_active_immediately(self):
        replica = EngineReplica(0, GPT2, warmup_s=0.0)
        assert replica.state is ReplicaState.ACTIVE
        assert replica.routable
        assert replica.ready_s == 0.0

    def test_scaled_up_replica_warms_before_serving(self):
        replica = EngineReplica(1, GPT2, spawned_s=2.0, warmup_s=1.5)
        assert replica.state is ReplicaState.WARMING
        assert not replica.routable
        assert replica.ready_s == 3.5
        assert not replica.activate_if_ready(3.0)
        assert replica.activate_if_ready(3.5)
        assert replica.state is ReplicaState.ACTIVE

    def test_default_warmup_is_parameter_packing_time(self):
        replica = EngineReplica(0, GPT2, spawned_s=1.0, warmup_s=None)
        assert replica.warmup_s == pytest.approx(replica.worker.packing_s)
        assert replica.ready_s == pytest.approx(1.0 + replica.worker.packing_s)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            EngineReplica(0, GPT2, warmup_s=-1.0)

    def test_kv_pool_smaller_than_one_block_fails_at_construction(self):
        # GPT-2 KV is ~49 KB/token at A8: 0.001 MB holds no 16-token block.
        with pytest.raises(ValueError, match="holds no"):
            EngineReplica(0, GPT2,
                          kv_config=KVCacheConfig.from_capacity_mb(0.001))

    def test_policies_resolve_without_an_engine(self):
        replica = EngineReplica(0, GPT2, preemption="largest_kv")
        assert replica.worker.preemption.name == "largest_kv"
        assert replica.worker.scheduler.config == SchedulerConfig()
        with pytest.raises(ValueError, match="preemption"):
            EngineReplica(0, GPT2, preemption="oldest")

    def test_clock_starts_at_readiness(self):
        replica = EngineReplica(0, GPT2, spawned_s=4.0, warmup_s=2.0)
        assert replica.worker.clock == pytest.approx(6.0)

    def test_warming_replica_rejects_submissions(self):
        replica = EngineReplica(0, GPT2, warmup_s=5.0)
        with pytest.raises(RuntimeError, match="warming"):
            replica.submit(make_request())


class TestDrain:
    def test_drain_finishes_submitted_work_then_stops(self):
        replica = EngineReplica(0, GPT2, warmup_s=0.0)
        replica.submit(make_request())
        replica.drain(0.0)
        assert replica.state is ReplicaState.DRAINING
        with pytest.raises(RuntimeError, match="draining"):
            replica.submit(make_request(1))
        while replica.step():
            pass
        assert replica.state is ReplicaState.STOPPED
        assert replica.stopped_s == replica.worker.clock
        report = replica.report("gpt2")
        assert report.completed == 1

    def test_drain_of_idle_replica_stops_immediately(self):
        replica = EngineReplica(0, GPT2, warmup_s=0.0)
        replica.drain(3.0)
        assert replica.state is ReplicaState.STOPPED
        assert replica.stopped_s == 3.0

    def test_stop_releases_kv_but_keeps_report_counters(self):
        from repro.serving import KVCacheConfig

        kv = KVCacheConfig.from_capacity_mb(64.0)
        replica = EngineReplica(0, GPT2, kv_config=kv, warmup_s=0.0)
        replica.submit(make_request())
        replica.drain(0.0)
        while replica.step():
            pass
        assert replica.worker.manager is None
        stats = replica.worker.device_stats()
        assert stats.kv_blocks_total > 0
        assert stats.kv_peak_blocks > 0

    def test_release_kv_refuses_while_work_in_flight(self):
        from repro.serving import KVCacheConfig

        kv = KVCacheConfig.from_capacity_mb(64.0)
        replica = EngineReplica(0, GPT2, kv_config=kv, warmup_s=0.0)
        replica.submit(make_request())
        replica.step()
        with pytest.raises(RuntimeError, match="drain it dry"):
            replica.worker.release_kv()
        # The pool survived the refused release; the batch keeps running.
        assert replica.worker.manager is not None
        while replica.step():
            pass

    def test_drain_is_idempotent(self):
        replica = EngineReplica(0, GPT2, warmup_s=0.0)
        replica.drain(1.0)
        replica.drain(2.0)
        assert replica.stopped_s == 1.0


class TestLoadSignals:
    def test_queue_and_running_counts(self):
        replica = EngineReplica(0, GPT2, warmup_s=0.0)
        replica.submit(make_request(0))
        replica.submit(make_request(1))
        assert replica.queue_depth == 2
        assert replica.num_running == 0
        assert replica.in_system == 2
        replica.step()
        assert replica.in_system == 2  # admitted into the batch, still here

    def test_report_completes_all_requests(self):
        replica = EngineReplica(0, GPT2, warmup_s=0.0)
        for i in range(3):
            replica.submit(make_request(i, arrival_s=0.05 * i))
        while replica.step():
            pass
        report = replica.report("gpt2")
        assert report.completed == 3
        assert len(report.devices) == 1
        assert report.devices[0].device_id == 0
