"""Tests for prefill/decode disaggregation: roles, KV hand-off, per-role
autoscaling, and the unified tier's byte-for-byte stability."""

import json

import pytest

from repro.models.config import GPT2
from repro.serving import (
    DisaggregationConfig,
    KVCacheConfig,
    ServingCluster,
)
from repro.serving.cluster import AutoscalerConfig, ReplicaRole
from repro.serving.cluster.replica import EngineReplica, resolve_replica_role
from repro.serving.workload_gen import TimedRequest, poisson_trace
from repro.models.workload import Workload
from tests.serving.cluster.test_cluster import (
    single_replica_dict,
    worker_to_completion,
)


def decode_heavy_trace(num_requests=24, rate=30.0, seed=0):
    """Short prompts, long outputs: the regime disaggregation exists for."""
    return poisson_trace(num_requests, rate, seed=seed,
                         input_choices=(32, 64),
                         output_choices=(96, 128))


def disaggregated(prefill=1, decode=2, **kwargs):
    return ServingCluster(GPT2, disaggregation=DisaggregationConfig(
        prefill_replicas=prefill, decode_replicas=decode), **kwargs)


class TestConfigValidation:
    def test_pool_sizes_validated(self):
        with pytest.raises(ValueError, match="prefill_replicas"):
            DisaggregationConfig(prefill_replicas=0)
        with pytest.raises(ValueError, match="decode_replicas"):
            DisaggregationConfig(decode_replicas=0)

    def test_transfer_bandwidth_validated(self):
        with pytest.raises(ValueError, match="kv_transfer_gbs"):
            DisaggregationConfig(kv_transfer_gbs=0.0)

    def test_initial_replicas_conflict_rejected(self):
        with pytest.raises(ValueError, match="initial_replicas"):
            ServingCluster(GPT2, initial_replicas=5,
                           disaggregation=DisaggregationConfig())

    def test_matching_initial_replicas_accepted(self):
        ServingCluster(GPT2, initial_replicas=2,
                       disaggregation=DisaggregationConfig())

    def test_autoscaler_bounds_apply_per_pool(self):
        with pytest.raises(ValueError, match="decode_replicas=3"):
            ServingCluster(GPT2,
                           disaggregation=DisaggregationConfig(
                               prefill_replicas=1, decode_replicas=3),
                           autoscaler=AutoscalerConfig(max_replicas=2))

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown replica role"):
            resolve_replica_role("both")
        assert resolve_replica_role("decode") is ReplicaRole.DECODE
        assert resolve_replica_role(ReplicaRole.PREFILL) \
            is ReplicaRole.PREFILL

    def test_replica_defaults_to_unified(self):
        assert EngineReplica(0, GPT2).role is ReplicaRole.UNIFIED


class TestTwoStageFlow:
    def test_all_requests_complete(self):
        report = disaggregated().run(decode_heavy_trace())
        assert report.completed == 24
        assert report.disaggregated

    def test_every_multi_token_request_migrates_exactly_once(self):
        trace = decode_heavy_trace()
        cluster = disaggregated()
        report = cluster.run(trace)
        assert report.kv_migrations == len(trace)
        for request in cluster.replicas[0].requests:
            assert request.migrations == 1
            assert request.migration_ready_s is not None

    def test_first_tokens_land_on_prefill_decodes_on_decode(self):
        cluster = disaggregated()
        cluster.run(decode_heavy_trace())
        prefill = [r for r in cluster.replicas
                   if r.role is ReplicaRole.PREFILL]
        decode = [r for r in cluster.replicas
                  if r.role is ReplicaRole.DECODE]
        # Every first token is emitted by the prefill pool...
        assert sum(len(r.worker.ttft_samples) for r in prefill) == 24
        assert all(not r.worker.ttft_samples for r in decode)
        # ...and every completion (TPOT sample) by the decode pool.
        assert sum(len(r.worker.tpot_samples) for r in decode) == 24
        assert sum(r.worker.migrated_in for r in decode) == 24
        assert sum(r.worker.handoff_count for r in prefill) == 24

    def test_single_token_outputs_finish_on_prefill_without_migration(self):
        trace = [TimedRequest(0, Workload(32, 1), 0.0),
                 TimedRequest(1, Workload(64, 1), 0.1)]
        cluster = disaggregated()
        report = cluster.run(trace)
        assert report.completed == 2
        assert report.kv_migrations == 0
        assert cluster.replicas[0].worker.served == 2

    def test_decode_starts_only_after_transfer_lands(self):
        """With a crawling interconnect the hand-off dominates: first
        tokens are unaffected but completions wait on the wire."""
        trace = decode_heavy_trace(num_requests=8)
        fast = ServingCluster(GPT2, disaggregation=DisaggregationConfig(
            kv_transfer_gbs=1000.0, decode_replicas=2)).run(trace)
        slow = ServingCluster(GPT2, disaggregation=DisaggregationConfig(
            kv_transfer_gbs=0.05, decode_replicas=2)).run(trace)
        assert slow.kv_transfer_seconds > 100 * fast.kv_transfer_seconds
        assert slow.ttft.p95 == pytest.approx(fast.ttft.p95)
        assert slow.e2e_latency.mean > fast.e2e_latency.mean
        cluster = ServingCluster(GPT2, disaggregation=DisaggregationConfig(
            kv_transfer_gbs=0.05, decode_replicas=2))
        cluster.run(trace)
        for request in cluster.replicas[0].requests:
            if request.migrations:
                assert request.enqueue_s == request.migration_ready_s
                assert request.migration_ready_s > request.first_token_s

    def test_transfer_bytes_priced_from_session_kv_rows(self):
        trace = [TimedRequest(0, Workload(32, 8), 0.0)]
        cluster = disaggregated(decode=1)
        report = cluster.run(trace)
        session = cluster.replicas[0].worker.session
        # Resident KV at hand-off: the 32-token prompt + the first token.
        assert report.kv_bytes_transferred == pytest.approx(
            33 * session.kv_bytes_per_token)

    def test_rerun_byte_identical(self):
        trace = decode_heavy_trace()
        cluster = disaggregated()
        assert json.dumps(cluster.run(trace).to_dict(), sort_keys=True) \
            == json.dumps(cluster.run(trace).to_dict(), sort_keys=True)


class TestKVHandoffAccounting:
    def kv_cluster(self, capacity_mb=64.0):
        return ServingCluster(
            GPT2, kv_config=KVCacheConfig.from_capacity_mb(capacity_mb),
            disaggregation=DisaggregationConfig(prefill_replicas=1,
                                                decode_replicas=2))

    def test_exports_and_imports_balance(self):
        cluster = self.kv_cluster()
        report = cluster.run(decode_heavy_trace())
        prefill = cluster.replicas[0].worker.manager
        decodes = [r.worker.manager for r in cluster.replicas[1:]]
        assert prefill.kv_exports == report.kv_migrations == 24
        assert sum(m.kv_imports for m in decodes) == 24
        assert prefill.blocks_exported > 0
        assert all(m.blocks_imported > 0 for m in decodes if m.kv_imports)

    def test_pools_drain_dry(self):
        cluster = self.kv_cluster()
        cluster.run(decode_heavy_trace())
        for replica in cluster.replicas:
            assert replica.worker.manager.used_blocks == 0

    def test_decode_pressure_preempts_and_still_completes(self):
        trace = poisson_trace(24, 60.0, seed=0, input_choices=(96, 128),
                              output_choices=(96, 128))
        cluster = self.kv_cluster(capacity_mb=16.0)
        report = cluster.run(trace)
        assert report.completed == 24
        assert report.preemptions > 0, "regime check: pressure expected"


class TestUnifiedModeUnchanged:
    """disaggregation=None must stay the PR 4 tier byte-for-byte."""

    def test_no_disaggregation_keys_in_unified_payload(self):
        report = ServingCluster(GPT2, initial_replicas=2).run(
            decode_heavy_trace(num_requests=8))
        payload = report.to_dict()
        assert "disaggregation" not in payload
        assert all("role" not in entry for entry in payload["replicas"])
        assert not report.disaggregated
        assert report.kv_migrations == 0

    def test_unified_still_matches_worker_loop(self):
        trace = poisson_trace(16, 20.0, seed=1)
        assert json.dumps(worker_to_completion(trace), sort_keys=True) \
            == json.dumps(single_replica_dict(trace), sort_keys=True)


class TestDisaggregatedBeatsUnifiedTTFT:
    def test_p95_ttft_improves_at_equal_replica_count(self):
        """The tentpole claim at test scale (the benchmark asserts it at
        full scale): dedicated prefill replicas protect TTFT from decode
        interference on a saturated decode-heavy trace."""
        trace = poisson_trace(48, 30.0, seed=0, input_choices=(32, 64),
                              output_choices=(128, 256))
        unified = ServingCluster(GPT2, initial_replicas=4).run(trace)
        split = ServingCluster(GPT2, disaggregation=DisaggregationConfig(
            prefill_replicas=2, decode_replicas=2)).run(trace)
        assert unified.completed == split.completed == 48
        assert split.ttft.p95 < unified.ttft.p95


class TestPerRoleAutoscaling:
    def autoscaler(self, **kwargs):
        defaults = dict(min_replicas=1, max_replicas=3, warmup_s=0.2,
                        control_interval_s=0.1, cooldown_s=0.2)
        defaults.update(kwargs)
        return AutoscalerConfig(**defaults)

    def test_prefill_pool_scales_on_backlog(self):
        cluster = disaggregated(prefill=1, decode=2,
                                autoscaler=self.autoscaler())
        report = cluster.run(poisson_trace(
            48, 60.0, seed=0, input_choices=(96, 128),
            output_choices=(16, 32)))
        assert report.completed == 48
        prefill = [r for r in cluster.replicas
                   if r.role is ReplicaRole.PREFILL]
        assert len(prefill) > 1, "prefill-heavy overload should grow pool"
        assert len(report.role_replica_ids("prefill")) == len(prefill)

    def test_decode_pool_scales_on_tpot_slo(self):
        cluster = disaggregated(prefill=1, decode=1,
                                autoscaler=self.autoscaler(
                                    slo_tpot_s=0.008))
        report = cluster.run(decode_heavy_trace(num_requests=32,
                                                rate=40.0))
        assert report.completed == 32
        decode = [r for r in cluster.replicas
                  if r.role is ReplicaRole.DECODE]
        assert len(decode) > 1, "TPOT SLO pressure should grow the pool"

    def test_decode_pool_scales_on_kv_pressure(self):
        cluster = ServingCluster(
            GPT2, kv_config=KVCacheConfig.from_capacity_mb(24.0),
            disaggregation=DisaggregationConfig(prefill_replicas=1,
                                                decode_replicas=1),
            autoscaler=self.autoscaler(kv_pressure_high=0.5))
        report = cluster.run(decode_heavy_trace(num_requests=32,
                                                rate=40.0))
        assert report.completed == 32
        decisions = cluster.decode_autoscaler.decisions
        assert any(d.kv_utilization is not None
                   and d.kv_utilization > 0.5 for d in decisions)
        assert len([r for r in cluster.replicas
                    if r.role is ReplicaRole.DECODE]) > 1

    def test_spawned_replicas_inherit_their_pool_role(self):
        cluster = disaggregated(prefill=1, decode=1,
                                autoscaler=self.autoscaler())
        cluster.run(decode_heavy_trace(num_requests=32, rate=60.0))
        for replica in cluster.replicas:
            assert replica.role in (ReplicaRole.PREFILL,
                                    ReplicaRole.DECODE)

    def test_autoscaled_disaggregated_rerun_byte_identical(self):
        trace = decode_heavy_trace(num_requests=24, rate=40.0)
        def run():
            return disaggregated(prefill=1, decode=1,
                                 autoscaler=self.autoscaler()).run(trace)
        assert json.dumps(run().to_dict(), sort_keys=True) \
            == json.dumps(run().to_dict(), sort_keys=True)


class TestReportSurface:
    def test_disaggregation_section_in_json(self):
        report = disaggregated().run(decode_heavy_trace(num_requests=8))
        payload = json.loads(json.dumps(report.to_dict()))
        section = payload["disaggregation"]
        assert section["prefill_replicas"] == 1
        assert section["decode_replicas"] == 2
        assert section["kv_migrations"] == 8
        assert section["kv_bytes_transferred"] > 0
        assert section["kv_transfer_seconds"] > 0
        roles = [entry["role"] for entry in payload["replicas"]]
        assert roles == ["prefill", "decode", "decode"]

    def test_format_mentions_handoff(self):
        report = disaggregated().run(decode_heavy_trace(num_requests=8))
        text = report.format()
        assert "disaggregated" in text
        assert "kv hand-off" in text
        assert "[prefill]" in text and "[decode]" in text


class TestTimelineControlAtZero:
    def burst_at_zero(self, n=12):
        from repro.models.workload import Workload
        from repro.serving.workload_gen import burst_trace
        return burst_trace([Workload(64, 32)] * n)

    def test_instant_overload_scales_up_at_t0(self):
        """A burst arriving at t=0 is dispatched before the t=0 control
        tick (tie order: arrival first), so the very first evaluation
        sees the backlog and warm-up starts at t=0 — not one control
        interval late."""
        cluster = ServingCluster(
            GPT2, initial_replicas=1, router="least_queue",
            autoscaler=AutoscalerConfig(max_replicas=2, warmup_s=0.1,
                                        control_interval_s=0.25))
        report = cluster.run(self.burst_at_zero())
        first = cluster.autoscaler.decisions[0]
        assert first.time_s == 0.0 and first.action == "up"
        assert report.lifecycles[1].spawned_s == 0.0

    def test_t0_sample_records_post_control_fleet(self):
        """The timeline's t=0 sample is the post-control composition —
        one sample, warming replica included — never the pre-control
        transient alongside it."""
        cluster = ServingCluster(
            GPT2, initial_replicas=1, router="least_queue",
            autoscaler=AutoscalerConfig(max_replicas=2, warmup_s=0.1,
                                        control_interval_s=0.25))
        report = cluster.run(self.burst_at_zero())
        t0 = [s for s in report.timeline if s.time_s == 0.0]
        assert len(t0) == 1, "one (post-control) sample at t=0"
        assert t0[0].active == 1 and t0[0].warming == 1

    def test_no_zero_evidence_scale_down_before_traffic(self):
        """Control ticks before the first dispatch are skipped: an
        over-provisioned idle fleet must not be drained (nor the cooldown
        burned) on zero evidence before the opening traffic arrives."""
        cluster = ServingCluster(
            GPT2, initial_replicas=2, router="least_queue",
            autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=2,
                                        control_interval_s=0.25))
        trace = poisson_trace(8, 20.0, seed=0)
        first_arrival = trace[0].arrival_s
        report = cluster.run(trace)
        decisions = cluster.autoscaler.decisions
        assert decisions, "control loop should run once traffic flows"
        assert decisions[0].time_s >= first_arrival
        assert report.timeline[0].time_s == 0.0
        assert report.timeline[0].active == 2
        assert report.completed == 8
