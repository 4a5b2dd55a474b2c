"""Differential-testing harness: the event kernel must reproduce the
step loop byte-for-byte.

The discrete-event kernel (``ServingCluster(kernel="event")``) rewrote
the hot core under five PRs' worth of accumulated serving behavior, so
its correctness argument is not "the code looks equivalent" but "on the
same seeded trace, both kernels emit the *identical* ``ClusterReport``
— every latency percentile, every preemption count, every timeline
sample — compared as serialized JSON".  The parametrized matrix below
spans the representative regimes: unified/autoscaled/disaggregated
fleets, every routing policy, prefix caching, KV pressure with
preemption, and migration under decode-pool scaling.  Each report is
also pinned to a recorded sha256 (``GOLDEN_SHA256``), so a change that
moves both kernels alike fails too.

Also here: the regression pinning event-count + run-ahead steps ==
step-loop iteration-count (the two kernels must process the same number
of simulation events, or they diverged silently), and the report-shape
assertion guarding the numpy metrics refactor (report JSON shape
unchanged).
"""

import hashlib
import json

import pytest

from repro.models.config import GPT2
from repro.serving import KVCacheConfig, SchedulerConfig
from repro.serving.cluster import (
    AutoscalerConfig,
    DisaggregationConfig,
    FaultPlan,
    KVLinkDegradation,
    ReplicaCrash,
    ServingCluster,
    SlowNode,
)
from repro.serving.workload_gen import (
    flash_crowd_trace,
    multi_turn_trace,
    poisson_trace,
    shared_prefix_trace,
    tool_use_trace,
)

PER_TOKEN = GPT2.kv_cache_bytes_per_token()


def kv_blocks(blocks, block_size=16, **kwargs):
    """A pool of exactly ``blocks`` blocks (test-legible sizing)."""
    return KVCacheConfig(capacity_bytes=blocks * block_size * PER_TOKEN,
                         block_size=block_size, **kwargs)


# name -> (cluster kwargs, trace).  Every entry runs under both kernels
# and the reports must match byte-for-byte.
CONFIGS = {
    "single_replica": (
        dict(initial_replicas=1),
        poisson_trace(60, 25.0, seed=0)),
    "fixed_round_robin": (
        dict(initial_replicas=3, router="round_robin"),
        poisson_trace(90, 40.0, seed=1)),
    "fixed_least_queue": (
        dict(initial_replicas=3, router="least_queue"),
        poisson_trace(120, 40.0, seed=7)),
    "least_kv_pressure": (
        dict(initial_replicas=2, router="least_kv_pressure",
             kv_config=kv_blocks(128)),
        poisson_trace(80, 30.0, seed=2)),
    "prefix_affinity_cached": (
        dict(initial_replicas=2, router="prefix_affinity",
             kv_config=kv_blocks(256, enable_prefix_cache=True)),
        shared_prefix_trace(64, prefix_len=48, unique_len=8,
                            output_len=16, interval_s=0.02,
                            num_groups=4)),
    "kv_pressure_preempting": (
        dict(initial_replicas=2, router="least_kv_pressure",
             kv_config=kv_blocks(48),
             scheduler_config=SchedulerConfig(max_batch_size=8)),
        poisson_trace(80, 35.0, seed=13, input_choices=(64, 128),
                      output_choices=(32, 64))),
    "autoscaled_queue_only": (
        dict(initial_replicas=1, router="round_robin",
             autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4,
                                         warmup_s=0.2)),
        poisson_trace(100, 60.0, seed=4)),
    "autoscaled_slo_flash_crowd": (
        dict(initial_replicas=2, router="round_robin",
             autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=5,
                                         slo_ttft_s=0.5, warmup_s=0.2)),
        flash_crowd_trace(150, 20.0, 120.0, 1.0, 0.6, seed=11)),
    "disagg_basic": (
        dict(router="least_queue",
             disaggregation=DisaggregationConfig(prefill_replicas=1,
                                                 decode_replicas=2),
             kv_config=kv_blocks(256)),
        poisson_trace(100, 30.0, seed=3)),
    "disagg_kv_transfer_aware": (
        dict(router="round_robin",
             disaggregation=DisaggregationConfig(prefill_replicas=2,
                                                 decode_replicas=2,
                                                 kv_transfer_gbs=8.0),
             kv_config=kv_blocks(192)),
        poisson_trace(90, 35.0, seed=9, input_choices=(32, 64),
                      output_choices=(16,))),
    "disagg_decode_least_queue": (
        dict(router="least_queue",
             disaggregation=DisaggregationConfig(prefill_replicas=2,
                                                 decode_replicas=1,
                                                 decode_router="least_queue")),
        poisson_trace(70, 25.0, seed=6)),
    "disagg_autoscaled": (
        dict(router="least_queue",
             disaggregation=DisaggregationConfig(prefill_replicas=2,
                                                 decode_replicas=2),
             kv_config=kv_blocks(256),
             autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4,
                                         slo_tpot_s=0.05,
                                         kv_pressure_high=0.8,
                                         warmup_s=0.1)),
        flash_crowd_trace(150, 25.0, 100.0, 1.0, 0.5, seed=5)),
    "disagg_streamed_kv": (
        dict(router="round_robin",
             disaggregation=DisaggregationConfig(prefill_replicas=2,
                                                 decode_replicas=2,
                                                 kv_transfer_gbs=0.05,
                                                 kv_stream_chunks=4),
             kv_config=kv_blocks(192)),
        poisson_trace(80, 30.0, seed=23, input_choices=(64, 128),
                      output_choices=(16, 32))),
    "disagg_streamed_stalling": (
        # Link slow enough that decode regularly outruns the stream: the
        # stall-clamp path (charged decode wait) must also be
        # kernel-equivalent, not just the happy streamed path.
        dict(router="least_queue",
             disaggregation=DisaggregationConfig(prefill_replicas=1,
                                                 decode_replicas=2,
                                                 kv_transfer_gbs=0.01,
                                                 kv_stream_chunks=6)),
        poisson_trace(60, 25.0, seed=29, input_choices=(32, 96),
                      output_choices=(24,))),
    "hybrid_prefill_capped": (
        dict(initial_replicas=2, router="least_queue",
             scheduler_config=SchedulerConfig(prefill_token_cap=96)),
        poisson_trace(90, 35.0, seed=31, input_choices=(64, 128),
                      output_choices=(16, 32))),
    "score_class_mix": (
        dict(initial_replicas=2, router="score",
             scheduler_config=SchedulerConfig(admission="score"),
             preemption="lowest_score"),
        poisson_trace(100, 45.0, seed=17,
                      slo_class_mix="interactive=1,standard=2,"
                                    "batch=2,best_effort=1")),
    "score_preempting_class_autoscaled": (
        dict(initial_replicas=1, router="score",
             scheduler_config=SchedulerConfig(admission="score",
                                              max_batch_size=8),
             preemption="lowest_score",
             kv_config=kv_blocks(48),
             autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4,
                                         class_miss_high=0.3,
                                         warmup_s=0.2)),
        poisson_trace(90, 40.0, seed=19, input_choices=(64, 128),
                      output_choices=(32, 64),
                      slo_class_mix="interactive=2,standard=1,"
                                    "best_effort=1")),
    "faulted_fixed_crash_slow": (
        dict(initial_replicas=3, router="least_queue",
             fault_plan=FaultPlan(events=(
                 ReplicaCrash(time_s=0.8, replica_id=1),
                 SlowNode(time_s=0.3, replica_id=0, scale=2.5,
                          duration_s=1.0)))),
        poisson_trace(90, 40.0, seed=41)),
    "faulted_autoscaled_replacement": (
        dict(initial_replicas=2, router="round_robin",
             autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=4,
                                         warmup_s=0.2),
             fault_plan=FaultPlan(events=(
                 ReplicaCrash(time_s=0.6, replica_id=0),))),
        poisson_trace(100, 50.0, seed=43)),
    "faulted_disagg_kvlink": (
        dict(router="least_queue",
             disaggregation=DisaggregationConfig(prefill_replicas=2,
                                                 decode_replicas=2,
                                                 kv_transfer_gbs=0.05,
                                                 kv_stream_chunks=2),
             kv_config=kv_blocks(192),
             fault_plan=FaultPlan(events=(
                 KVLinkDegradation(time_s=0.4, scale=0.25,
                                   duration_s=1.5),
                 ReplicaCrash(time_s=1.0, replica_id=2)))),
        poisson_trace(80, 30.0, seed=47, input_choices=(64, 128),
                      output_choices=(16, 32))),
    "multi_turn_prefix_cached": (
        dict(initial_replicas=2, router="prefix_affinity",
             kv_config=kv_blocks(256, enable_prefix_cache=True)),
        multi_turn_trace(8, 4, seed=53, session_rate_hz=4.0,
                         think_time_s=0.3,
                         turn_input_choices=(16, 32),
                         output_choices=(16, 32))),
    "tool_use_fixed": (
        dict(initial_replicas=2, router="least_queue"),
        tool_use_trace(6, 3, seed=59, agent_rate_hz=3.0,
                       tool_wait_s=0.4,
                       turn_input_choices=(16, 32),
                       output_choices=(8, 16))),
}


# sha256 of each config's report JSON (sorted keys): the recorded truth
# both kernels must keep reproducing, so a hot-path rewrite that moves a
# single simulated bit fails here even when the two kernels agree.  A
# change that moves results on purpose replaces the digests the failing
# test prints and says so in CHANGES.md.
GOLDEN_SHA256 = {
    "autoscaled_queue_only":
        "6ab194e24c98bae252548865f3dd954c9ba5102db02a0e9c18035bea66f4bc48",
    "autoscaled_slo_flash_crowd":
        "bee683e471fcd7881c2ce93f409ef1853dda3f5076856208a4d07b90231d7ee8",
    "disagg_autoscaled":
        "8c7b14cd3efeac3b8fa000a9d03db1e8ef631579ef21ae5d0d73d4d11648e2fb",
    "disagg_basic":
        "744ea6c83ae906ddc8173cd0a09c44098b1d427c6b8990473daaad9e4c1b0da4",
    "disagg_decode_least_queue":
        "8174226ed655bdeccf6ea7ab2760254305b0527a6f7c1268270d42b9ad3fdd87",
    "disagg_kv_transfer_aware":
        "975fc635bf522ef8f239296283b7c2b647e59c9a79efa0855a38697a5f60039d",
    "disagg_streamed_kv":
        "1b4c66eee1d6805399672bb66246db0118d37aba77936b2e510c73ff7cfe3689",
    "disagg_streamed_stalling":
        "c65b234bd0c01a6c198a958c85fc842c95e581aac3c14e5af6c4f029cc2db7e7",
    "faulted_autoscaled_replacement":
        "948229263ad5b3fd50e75f2d0807c25f537a51b872c4c2853c1fd19488e84fc2",
    "faulted_disagg_kvlink":
        "1cfaf2d60881857243daeb57ee754a42a517044bf7b30022dc3a43dc8ee80b86",
    "faulted_fixed_crash_slow":
        "9dba8d1343096a781264d9b50467d0022077a4ff7d074639c791fe69a70883c7",
    "fixed_least_queue":
        "6cd7efeab623e335c3fd5835f1f66998465fa9d7cecb38e0ea83a7ee0ad4e25a",
    "fixed_round_robin":
        "c21db527bc3a4091927a2c82c4c04a76e6adc745e34591faf8622a665e89c15c",
    "hybrid_prefill_capped":
        "e3847f9a3a78afef5dbdc5a5ba2ec9429a5acf56644c03f69ab3a16a66a9131e",
    "kv_pressure_preempting":
        "bdc370286b245c86243f501c4f9ab4abdf1203367935113685659b48516f4fb3",
    "least_kv_pressure":
        "70dbb19622fbf0b5d535e08b993daf919e6591b4a98e165e507aa9fe603b2765",
    "multi_turn_prefix_cached":
        "4c7473ebdc181b5f04d8edae2ca591e852bab9c792d401314c4a4521113cf36e",
    "prefix_affinity_cached":
        "9a10b4bbfb45bebb5f9a6d9f4d6c26a4031304dccf9c7956b87132ec795f89d9",
    "score_class_mix":
        "8aa745b36ea7d62586054ebd13b23f84806edc94ab352fef149ab3433ccd1e3e",
    "score_preempting_class_autoscaled":
        "e439c0bf69f623f7256e0e12bc7c98bc1536316c03851bd7eae054679dcdd084",
    "single_replica":
        "2dce3dd606b0f2b9ae19848173d1bde1016c3ba9719a5ccdcadc037bd039a788",
    "tool_use_fixed":
        "8c6145bc83d267c82b0e6a48de992bdb5412b8037ea1b3d33cbeec6ce62e5e35",
}


def run_kernel(kernel, kwargs, trace):
    cluster = ServingCluster(GPT2, kernel=kernel, **kwargs)
    return cluster, cluster.run(trace)


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_event_kernel_reproduces_step_loop(self, name):
        kwargs, trace = CONFIGS[name]
        _, event_report = run_kernel("event", kwargs, trace)
        _, step_report = run_kernel("step", kwargs, trace)
        payload = json.dumps(event_report.to_dict(), sort_keys=True)
        assert payload == json.dumps(step_report.to_dict(), sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == GOLDEN_SHA256[name], \
            f"{name}: report moved from the recorded digest; now {digest}"

    def test_every_config_has_a_recorded_digest(self):
        assert set(GOLDEN_SHA256) == set(CONFIGS)

    def test_matrix_exercises_every_regime(self):
        """Meta-coverage: the matrix must keep spanning the regimes the
        harness claims to cover."""
        kwargs_list = [kwargs for kwargs, _ in CONFIGS.values()]
        assert sum(1 for k in kwargs_list
                   if k.get("autoscaler") is not None) >= 3
        assert sum(1 for k in kwargs_list
                   if k.get("disaggregation") is not None) >= 4
        assert sum(1 for k in kwargs_list
                   if k.get("kv_config") is not None) >= 5
        assert sum(1 for k in kwargs_list
                   if k.get("disaggregation") is not None
                   and k["disaggregation"].kv_stream_chunks > 1) >= 2
        assert any(k.get("scheduler_config") is not None
                   and k["scheduler_config"].prefill_token_cap is not None
                   for k in kwargs_list)
        routers = {k.get("router", "round_robin") for k in kwargs_list}
        assert {"round_robin", "least_queue", "least_kv_pressure",
                "prefix_affinity", "score"} <= routers
        # Fault injection: crashes on fixed, autoscaled and
        # disaggregated fleets, plus at least one transient fault.
        plans = [k["fault_plan"] for k in kwargs_list
                 if k.get("fault_plan") is not None]
        assert sum(plan.num_crashes > 0 for plan in plans) >= 3
        assert any(plan.num_slow_nodes > 0 for plan in plans)
        assert any(plan.num_kv_link_degradations > 0 for plan in plans)

    def test_faulted_configs_actually_crash_and_retry(self):
        """Regime check: the crash entries must keep losing in-flight
        work and re-dispatching it, or the matrix tests nothing."""
        for name in ("faulted_fixed_crash_slow",
                     "faulted_autoscaled_replacement",
                     "faulted_disagg_kvlink"):
            cluster, report = run_kernel("event", *CONFIGS[name])
            assert report.faults is not None, name
            assert report.faults["crashes"] >= 1, name
            assert cluster.retry_dispatches >= 1, name
            assert report.completed + report.rejected \
                + report.faults["requests_failed"] == report.num_requests

    def test_autoscaler_replaces_crashed_replica(self):
        """The dead replica drops the fleet below min_replicas; the next
        control tick must spawn a warming replacement."""
        _, report = run_kernel(
            "event", *CONFIGS["faulted_autoscaled_replacement"])
        crashed = [row for row in report.to_dict()["replicas"]
                   if row["crashed"]]
        assert len(crashed) == 1
        spawned_after = [life for life in report.lifecycles
                         if life.spawned_s > 0.6]
        assert spawned_after, "no replacement replica spawned after crash"

    def test_conversational_configs_share_prefixes(self):
        """Regime check: the multi-turn entry must keep hitting the
        prefix cache (its turns replay the session context)."""
        _, report = run_kernel("event", *CONFIGS["multi_turn_prefix_cached"])
        assert report.prefix_hit_rate is not None
        assert report.prefix_hit_rate > 0.0

    def test_preempting_config_actually_preempts(self):
        """Regime check: the KV-pressure entry must keep exercising the
        preemption path, or the matrix silently loses that coverage."""
        kwargs, trace = CONFIGS["kv_pressure_preempting"]
        _, report = run_kernel("event", kwargs, trace)
        assert report.preemptions >= 1

    def test_disagg_config_actually_migrates(self):
        kwargs, trace = CONFIGS["disagg_basic"]
        _, report = run_kernel("event", kwargs, trace)
        assert report.kv_migrations == report.num_requests

    def test_streamed_config_actually_streams(self):
        """Regime check: the streamed entries must keep splitting every
        migration into multiple chunk landings."""
        kwargs, trace = CONFIGS["disagg_streamed_kv"]
        cluster, report = run_kernel("event", kwargs, trace)
        chunks = kwargs["disaggregation"].kv_stream_chunks
        assert cluster.kv_chunks_landed == chunks * report.kv_migrations
        assert report.kv_migrations > 0

    def test_stalling_config_actually_stalls(self):
        """Regime check: the slow-link entry must keep driving decode
        into the stream (stall clamp exercised), or the matrix silently
        loses the stall path."""
        kwargs, trace = CONFIGS["disagg_streamed_stalling"]
        _, report = run_kernel("event", kwargs, trace)
        assert report.kv_stall_steps >= 1
        assert report.kv_stall_seconds > 0.0


class TestEventCountRegression:
    def test_event_count_matches_step_iterations(self):
        """On a reference trace the event kernel's heap pops plus the
        steps it ran ahead equal the step loop's iterations exactly —
        each step-loop iteration handled one arrival/migration/control/
        step, and the event kernel handles the same sequence, either
        popped from its heap or (steps only) run ahead to the next
        cross-replica event.  A drift here means one kernel is doing (or
        skipping) work the other is not, even if the reports still
        happen to agree."""
        for name in ("fixed_least_queue", "autoscaled_slo_flash_crowd",
                     "disagg_basic", "faulted_fixed_crash_slow"):
            kwargs, trace = CONFIGS[name]
            event_cluster, _ = run_kernel("event", kwargs, trace)
            step_cluster, _ = run_kernel("step", kwargs, trace)
            assert event_cluster.events_processed \
                + event_cluster.run_ahead_steps == step_cluster.iterations
            assert step_cluster.run_ahead_steps == 0
            assert sum(event_cluster.event_counts[kind] for kind in
                       ("ARRIVAL", "TRANSFER_LANDED", "CONTROL_TICK",
                        "STEP", "FAULT")) == event_cluster.events_processed

    def test_unified_fleet_runs_ahead(self):
        """Run-ahead engages on a busy unified fleet: some engine steps
        never touch the heap."""
        kwargs, trace = CONFIGS["fixed_least_queue"]
        cluster, _ = run_kernel("event", kwargs, trace)
        assert cluster.run_ahead_steps > 0

    @pytest.mark.parametrize("name", sorted(
        name for name, (kwargs, _) in CONFIGS.items()
        if kwargs.get("disaggregation") is not None))
    def test_disaggregated_fleet_never_runs_ahead(self, name):
        """A prefill step can schedule a KV landing before any horizon
        the kernel knows of, so disaggregated fleets step only through
        the heap."""
        kwargs, trace = CONFIGS[name]
        cluster, _ = run_kernel("event", kwargs, trace)
        assert cluster.run_ahead_steps == 0

    def test_faulted_run_counts_fault_events(self):
        """Each fault edge is one first-class event in the heap — and one
        step-loop iteration, which is why the parity above still holds."""
        kwargs, trace = CONFIGS["faulted_fixed_crash_slow"]
        cluster, _ = run_kernel("event", kwargs, trace)
        # One crash plus a slow-node onset/restore pair = 3 edges.
        assert cluster.event_counts["FAULT"] == 3

    def test_step_kernel_does_not_touch_event_instrumentation(self):
        kwargs, trace = CONFIGS["single_replica"]
        cluster, _ = run_kernel("step", kwargs, trace)
        assert cluster.events_processed == 0
        assert cluster.iterations > 0


class TestFaultPlanGating:
    """An empty plan — or no plan at all — must leave every report
    byte-identical to the pre-fault build: fault support costs nothing
    unless a fault is actually scheduled."""

    @pytest.mark.parametrize("name", ["fixed_least_queue",
                                      "autoscaled_queue_only",
                                      "disagg_streamed_kv",
                                      "score_class_mix"])
    def test_empty_plan_is_byte_identical_to_no_plan(self, name):
        kwargs, trace = CONFIGS[name]
        _, baseline = run_kernel("event", kwargs, trace)
        _, with_none = run_kernel("event", dict(kwargs, fault_plan=None),
                                  trace)
        _, with_empty = run_kernel(
            "event", dict(kwargs, fault_plan=FaultPlan()), trace)
        reference = json.dumps(baseline.to_dict(), sort_keys=True)
        assert json.dumps(with_none.to_dict(), sort_keys=True) == reference
        assert json.dumps(with_empty.to_dict(), sort_keys=True) == reference

    def test_empty_plan_is_falsy_and_schedules_nothing(self):
        assert not FaultPlan()
        assert FaultPlan().actions() == []
        assert FaultPlan(events=(ReplicaCrash(1.0, 0),))


class TestReportShape:
    """The numpy metrics refactor moved sample accumulation to columnar
    buffers; the report JSON it emits must not have changed shape."""

    CLUSTER_KEYS = {
        "autoscaled", "completed", "e2e_latency_ms", "fleet_tokens_per_s",
        "makespan_s", "manifest", "model", "num_requests", "peak_replicas",
        "preemptions", "queue_wait_ms", "rejected",
        "replica_count_timeline", "replica_seconds", "replicas", "router",
        "total_output_tokens", "tpot_ms", "ttft_ms",
    }
    REPLICA_KEYS = {
        "aggregate_tokens_per_s", "completed", "devices", "e2e_latency_ms",
        "makespan_s", "mean_kv_utilization", "mean_queue_depth", "model",
        "num_devices", "num_requests", "peak_kv_utilization",
        "peak_queue_depth", "preemption_events", "preemptions",
        "queue_wait_ms", "rejected", "total_output_tokens", "tpot_ms",
        "ttft_ms",
    }
    LATENCY_KEYS = {"count", "max", "mean", "p50", "p95", "p99"}

    def test_cluster_report_dict_shape_unchanged(self):
        kwargs, trace = CONFIGS["fixed_least_queue"]
        cluster, report = run_kernel("event", kwargs, trace)
        payload = report.to_dict()
        assert set(payload) == self.CLUSTER_KEYS
        # The run manifest is always on (deliberate PR 9 shape change);
        # untraced runs grow no other key — "telemetry" stays gated.
        assert payload["manifest"]["component"] == "cluster"
        assert "telemetry" not in payload
        assert set(payload["ttft_ms"]) == self.LATENCY_KEYS
        assert set(payload["tpot_ms"]) == self.LATENCY_KEYS
        assert set(report.replica_reports[0].to_dict()) == self.REPLICA_KEYS
        # Everything in the serialized report is plain JSON scalars —
        # no numpy types may leak through the columnar buffers.
        json.dumps(payload)
        for value in payload.values():
            assert type(value) in (str, int, float, bool, list, dict)

    def test_class_mix_report_adds_only_class_keys(self):
        """A class-mixed run grows exactly the two gated sections; a
        classless run (above) keeps the PR 6 shape byte-identical."""
        kwargs, trace = CONFIGS["score_class_mix"]
        _, report = run_kernel("event", kwargs, trace)
        payload = report.to_dict()
        assert set(payload) == self.CLUSTER_KEYS | {"slo_classes",
                                                    "fairness"}
        assert set(payload["fairness"]) == {"jain_index",
                                            "class_weighted_attainment"}
        json.dumps(payload)

    FAULT_KEYS = {"crashes", "slow_nodes", "kv_link_degradations",
                  "retries", "max_retries", "requests_failed",
                  "recovery_ttft_ms"}

    def test_faulted_report_adds_only_fault_keys(self):
        """A faulted run grows exactly the gated ``faults`` section (plus
        the per-replica ``crashed`` flag); everything else keeps shape."""
        kwargs, trace = CONFIGS["faulted_fixed_crash_slow"]
        _, report = run_kernel("event", kwargs, trace)
        payload = report.to_dict()
        assert set(payload) == self.CLUSTER_KEYS | {"faults"}
        assert set(payload["faults"]) == self.FAULT_KEYS
        assert set(payload["faults"]["recovery_ttft_ms"]) \
            == self.LATENCY_KEYS
        for row in payload["replicas"]:
            assert "crashed" in row
        # The plan itself is pinned into the manifest for provenance.
        assert payload["manifest"]["faults"]["max_retries"] == 3
        json.dumps(payload)

    def test_unfaulted_report_has_no_fault_keys(self):
        kwargs, trace = CONFIGS["fixed_least_queue"]
        _, report = run_kernel("event", kwargs, trace)
        payload = report.to_dict()
        assert "faults" not in payload
        assert "faults" not in payload["manifest"]
        for row in payload["replicas"]:
            assert "crashed" not in row
