"""Multi-tenant scheduling ablation: score-based global scheduling vs
fcfs and priority tiers on a class-mixed overload.

Not a paper artefact — the paper (conf_micro_YeC25) measures
single-request latency only.  This benchmark drives the same SLO-classed
Poisson overload (interactive/standard/batch/best_effort) through the
three scheduler stacks and judges them the way a multi-tenant operator
would: class-weighted TTFT attainment (misses on an interactive request
cost 8x a best-effort miss) and the Jain fairness index over per-class
attainment.  The claim under test is the tentpole's: a single
value-density score with aging strictly beats both FCFS (ignores value,
so the backlog buries interactive requests) and strict priority tiers
(ignore cost and age, so low tiers are served dead last) — while starving
nobody: every best-effort request still lands inside its own generous
TTFT target.  Headline numbers land in ``BENCH_cluster.json`` via the
conftest session hook.
"""

import os

import pytest

import serving_artifact
from repro.eval.serving import class_mix_stacks, run_sweep
from repro.models.config import GPT2
from repro.serving.workload_gen import poisson_trace

# REPRO_BENCH_FAST=1 (the CI smoke job) shrinks the trace; the asserted
# orderings are structural and hold at both sizes.
FAST = os.environ.get("REPRO_BENCH_FAST") == "1"

# Deep overload on a fixed 2-replica fleet: arrivals at ~3x the fleet's
# service rate for the whole window, so admission order — not capacity —
# decides who makes their target.  Milder load lets priority tie or edge
# out score (there is no backlog to triage); this regime is where the
# stacks genuinely separate.
NUM_REQUESTS = 64 if FAST else 128
RATE_HZ = 45.0
REPLICAS = 2
MIX = "interactive=2,standard=2,batch=1,best_effort=1"


@pytest.fixture(scope="module")
def class_mix_trace():
    return poisson_trace(NUM_REQUESTS, RATE_HZ, seed=7,
                         slo_class_mix=MIX,
                         input_choices=(32, 64, 128),
                         output_choices=(16, 32, 64))


@pytest.fixture(scope="module")
def class_mix_points(class_mix_trace):
    points = run_sweep(GPT2, class_mix_trace, class_mix_stacks(),
                       initial_replicas=REPLICAS)
    return {point.label: point for point in points}


@pytest.mark.benchmark(group="cluster")
def test_score_beats_fcfs_and_priority_on_weighted_attainment(
        benchmark, class_mix_trace, class_mix_points):
    fcfs, priority, score = (class_mix_points[name].report
                             for name in ("fcfs", "priority", "score"))

    # Time the score stack end to end — and since the rerun shares the
    # fixture's seed, it doubles as a determinism check on the sweep.
    score_stack = {"score": class_mix_stacks()["score"]}
    timed = benchmark(
        lambda: run_sweep(GPT2, class_mix_trace, score_stack,
                          initial_replicas=REPLICAS)[0].report)
    assert timed.class_weighted_attainment == score.class_weighted_attainment

    print()
    for point in class_mix_points.values():
        print("  " + point.format())
        serving_artifact.record_cluster(
            f"class_mix_{point.label}", point.report,
            class_weighted_attainment=point.report.class_weighted_attainment,
            jain_index=point.report.jain_fairness)

    # Overload must not shed load: every stack serves the whole trace.
    for report in (fcfs, priority, score):
        assert report.completed == NUM_REQUESTS

    # The headline ordering: one score function strictly beats both
    # incumbent stacks on what the tenants actually pay for.
    assert score.class_weighted_attainment > fcfs.class_weighted_attainment
    assert score.class_weighted_attainment \
        > priority.class_weighted_attainment
    # ...and does so *more fairly*, not by sacrificing low tiers.
    assert score.jain_fairness > fcfs.jain_fairness
    assert score.jain_fairness > priority.jain_fairness


def test_score_starves_nobody(class_mix_points):
    """Aging bounds every request's wait: under the score stack each
    best-effort request completes inside its own (generous) TTFT target
    even while 8x-value interactive traffic floods the fleet."""
    score = class_mix_points["score"].report
    best_effort = next(o for o in score.class_outcomes
                       if o.slo_class.name == "best_effort")
    assert best_effort.submitted > 0
    assert best_effort.completed == best_effort.submitted
    # Zero starved: every best-effort request got its first token within
    # the class's own TTFT target, overload notwithstanding.
    assert best_effort.ttft_attained == best_effort.completed
    assert best_effort.ttft.max <= best_effort.slo_class.ttft_target_s
