"""Per-replica horizons must be invisible: an event-vs-step sweep over
``prefix_affinity`` multi-turn traces.

A popped STEP runs its replica ahead past upcoming arrivals that
``prefix_affinity`` routes to *other* replicas by a live pin, without
reading any replica's state (``RoutingPolicy.routed_elsewhere``).  The
run-ahead then ends at the first arrival that reads the fleet or reaches
the replica, at the next control tick or at the next fault.  Each seed
below varies what can break that argument: the prefix pool (48 blocks,
so idle prefix blocks are reclaimed and turns are preempted, or 256),
an autoscaler that drains and replaces replicas, a random fault plan
(crashes re-dispatch lost turns and unpin routability) and a span tracer
(its arrival samples read the whole fleet, so a traced run keeps the
fleet horizon).  Every seed must give the step loop's report, byte for
byte, and heap pops plus run-ahead steps must equal the step loop's
iterations.  The meta-checks hold the sweep to its purpose: segments do
run across pinned arrivals, with fewer STEP pops than a router that
names no replica, and never in a traced run.
"""

import json
from functools import lru_cache

import pytest

from repro.models.config import GPT2
from repro.serving import KVCacheConfig, Tracer
from repro.serving.cluster import AutoscalerConfig, FaultPlan, ServingCluster
from repro.serving.cluster.router import PrefixAffinityRouting
from repro.serving.workload_gen import multi_turn_trace

NUM_SEEDS = 60
PER_TOKEN = GPT2.kv_cache_bytes_per_token()


class _Counted(PrefixAffinityRouting):
    """``prefix_affinity``, counting the arrivals its answers pass over."""

    def __init__(self):
        super().__init__()
        self.passed = 0

    def routed_elsewhere(self, upcoming, routable, device_id):
        passed = super().routed_elsewhere(upcoming, routable, device_id)
        self.passed += passed
        return passed


class _FleetHorizon(PrefixAffinityRouting):
    """``prefix_affinity`` naming no replica: every arrival ends the
    run-ahead, as before per-replica horizons."""

    def routed_elsewhere(self, upcoming, routable, device_id):
        return 0


def _config(seed):
    """The seed's cluster kwargs (router excluded) and trace."""
    kwargs = dict(
        initial_replicas=4,
        kv_config=KVCacheConfig(
            capacity_bytes=(48 if seed % 2 else 256) * 16 * PER_TOKEN,
            block_size=16, enable_prefix_cache=True),
        fault_plan=FaultPlan.random(seed, num_replicas=4, horizon_s=3.0))
    if seed % 3:
        kwargs["autoscaler"] = AutoscalerConfig(
            min_replicas=2, max_replicas=5, warmup_s=0.1)
    trace = multi_turn_trace(10, 4, seed=seed, session_rate_hz=8.0,
                             think_time_s=0.3, turn_input_choices=(16, 48),
                             output_choices=(16, 48))
    return kwargs, trace


def _traced(seed):
    return seed % 5 == 0


@lru_cache(maxsize=None)
def _run(seed, kernel, router_class=_Counted):
    """(report JSON, events processed, run-ahead steps, step-loop
    iterations, STEP pops, arrivals passed over) of one seed's run."""
    kwargs, trace = _config(seed)
    router = router_class()
    cluster = ServingCluster(GPT2, kernel=kernel, router=router,
                             tracer=Tracer() if _traced(seed) else None,
                             **kwargs)
    report = cluster.run(trace)
    return (json.dumps(report.to_dict(), sort_keys=True),
            cluster.events_processed, cluster.run_ahead_steps,
            cluster.iterations, cluster.event_counts.get("STEP", 0),
            getattr(router, "passed", 0))


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_event_kernel_reproduces_step_loop(seed):
    event = _run(seed, "event")
    step = _run(seed, "step")
    assert event[0] == step[0], f"seed {seed}: reports differ"
    assert event[1] + event[2] == step[3]


def test_sweep_runs_segments_across_pinned_arrivals():
    """Untraced seeds pass over pinned arrivals and pop fewer STEPs than
    the fleet horizon, with the same reports; traced seeds never look
    ahead."""
    pops = fleet_pops = 0
    for seed in range(NUM_SEEDS):
        report, _, _, _, step_pops, passed = _run(seed, "event")
        if _traced(seed):
            assert passed == 0, f"seed {seed}: a traced run looked ahead"
            continue
        assert passed > 0, f"seed {seed}: no arrival passed over"
        fleet = _run(seed, "event", _FleetHorizon)
        assert fleet[0] == report
        pops += step_pops
        fleet_pops += fleet[4]
    assert pops < 0.9 * fleet_pops


def test_sweep_varies_pool_fleet_and_faults():
    """Regime check: the seeds preempt in the small pool, drain
    replicas, crash replicas and retry their lost turns."""
    drained = crashed = retried = preempted = 0
    for seed in range(NUM_SEEDS):
        payload = json.loads(_run(seed, "event")[0])
        faults = payload.get("faults", {})
        drained += any(row["draining"] for row in
                       payload["replica_count_timeline"])
        crashed += faults.get("crashes", 0) > 0
        retried += faults.get("retries", 0) > 0
        preempted += payload["preemptions"] > 0
    assert drained >= 10 and crashed >= 10 and retried >= 10
    assert preempted >= 5
