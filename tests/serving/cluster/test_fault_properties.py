"""Property-test layer over random fault plans.

The differential suite pins a handful of hand-written fault scenarios;
this sweep drives **200 seeded random plans** (:meth:`FaultPlan.random`)
through the cluster and asserts the invariants that must hold for *any*
plan — the properties that define crash-recovery correctness rather
than reproduce one trace:

* **conservation** — every request is accounted for exactly once:
  ``completed + rejected + failed == num_requests``.  A crash may lose
  in-flight work, but never a request.
* **crash causality** — a dead replica does no work: no span starts on
  a replica's tracer lane after that replica's crash instant, and no
  request completion lands there.
* **retry causality** — recovery follows failure: every RETRY dispatch
  instant is at (or after) the earliest crash instant; an unfaulted
  plan produces no retries at all.

Each seed also varies the fleet shape (every third seed autoscales, so
the spawn-with-warmup replacement path stays inside the sweep) while
the workload stays fixed — the plan is the random variable under test.
"""

import pytest

from repro.models.config import GPT2
from repro.serving import Tracer
from repro.serving.cluster import (AutoscalerConfig, FaultPlan, ReplicaCrash,
                                   ServingCluster)
from repro.serving.telemetry.tracer import SpanKind
from repro.serving.workload_gen import poisson_trace

NUM_SEEDS = 200
NUM_REQUESTS = 24


def run_faulted(seed: int):
    """One sweep sample: a fixed workload under a seeded random plan."""
    plan = FaultPlan.random(seed, num_replicas=3, horizon_s=2.0)
    autoscaler = None
    if seed % 3 == 0:
        autoscaler = AutoscalerConfig(min_replicas=2, max_replicas=4,
                                      warmup_s=0.1)
    tracer = Tracer()
    cluster = ServingCluster(GPT2, initial_replicas=3,
                             router="least_queue",
                             autoscaler=autoscaler,
                             fault_plan=plan, tracer=tracer)
    report = cluster.run(poisson_trace(NUM_REQUESTS, 20.0, seed=7))
    return plan, cluster, report, tracer


def crash_instants(tracer):
    """lane -> crash time, from the CRASH instants the run emitted."""
    crashes = {}
    for row in tracer.rows():
        if int(row[0]) == int(SpanKind.CRASH):
            crashes[int(row[2])] = float(row[3])
    return crashes


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_random_plan_invariants(seed):
    plan, cluster, report, tracer = run_faulted(seed)

    # Conservation: nothing vanishes, nothing is double-counted.
    assert report.completed + report.rejected + report.failed \
        == NUM_REQUESTS, f"seed {seed}: conservation violated"

    crashes = crash_instants(tracer)
    # Every recorded crash corresponds to a plan crash that could fire.
    plan_crashes = sum(isinstance(e, ReplicaCrash) for e in plan.events)
    assert len(crashes) <= plan_crashes

    # Crash causality: no span starts on a crashed lane after its death,
    # and no request is attributed a completion there.
    for row in tracer.rows():
        lane = int(row[2])
        if lane in crashes:
            assert float(row[3]) <= crashes[lane] + 1e-12, (
                f"seed {seed}: span kind {int(row[0])} starts at "
                f"{float(row[3])} on replica {lane} crashed at "
                f"{crashes[lane]}")
    for worker in cluster.replicas:
        if worker.device_id in crashes:
            assert worker.crashed
            assert worker.state.name == "STOPPED"
            assert not worker.running and not worker.waiting \
                and not worker.pending
            assert worker.stopped_s == pytest.approx(
                crashes[worker.device_id])

    # Retry causality: recovery dispatches only after the first death.
    retries = [float(row[3]) for row in tracer.rows()
               if int(row[0]) == int(SpanKind.RETRY)]
    if retries:
        assert crashes, f"seed {seed}: retries without any crash"
        assert min(retries) >= min(crashes.values()) - 1e-12
    if not plan_crashes:
        assert not retries
        assert report.failed == 0

    # The gated report section agrees with the sweep's own accounting.
    if plan:
        assert report.faults is not None
        assert report.faults["requests_failed"] == report.failed
        # Every RETRY instant is one dispatch; the report's retry total
        # additionally counts the budget-exhausted (failed) attempts.
        assert len(retries) == cluster.retry_dispatches
        assert report.faults["retries"] >= cluster.retry_dispatches
    else:
        assert report.faults is None


def test_sweep_actually_exercises_recovery():
    """Meta-coverage: across the 200 seeds the sweep must keep hitting
    crashes, retries and at least one autoscaled replacement — a sweep
    of no-op plans would pass every invariant vacuously."""
    crashed_runs = retried_runs = replaced_runs = 0
    for seed in range(0, NUM_SEEDS, 7):
        plan, cluster, report, tracer = run_faulted(seed)
        crashes = crash_instants(tracer)
        if crashes:
            crashed_runs += 1
        if cluster.retry_dispatches:
            retried_runs += 1
        if crashes and any(life.spawned_s > min(crashes.values())
                           for life in report.lifecycles):
            replaced_runs += 1
    assert crashed_runs >= 10
    assert retried_runs >= 5
    assert replaced_runs >= 1
