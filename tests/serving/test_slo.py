"""Tests for SLO classes and the score-based global scheduler.

Covers the class registry and class-mix parsing, the score function's
algebra (value density, urgency, aging), the score policy trio
(admission / preemption / routing), and — the headline bugfix — the
starvation regression: under ``priority`` admission a low-tier request's
wait grows with the length of a saturating high-tier stream (unbounded
in the trace size), while under ``score`` admission the aging term
bounds it regardless of how long the stream runs.
"""

import pytest

from repro.models.config import GPT2
from repro.models.workload import Workload
from repro.serving import SchedulerConfig, ServingCluster
from repro.serving.policies import LowestScoreFirstPreemption, ScoreAdmission
from repro.serving.request import ServingRequest
from repro.serving.slo import (
    DEFAULT_AGING_RATE,
    DEFAULT_SLO_CLASS,
    SLO_CLASSES,
    SLOClass,
    parse_class_mix,
    request_score,
    request_value,
    resolve_slo_class,
)
from repro.serving.workload_gen import TimedRequest, poisson_trace


def classed_request(request_id, slo_class, arrival_s=0.0,
                    workload=Workload(64, 36)):
    return ServingRequest(request_id, workload, arrival_s,
                          slo_class=resolve_slo_class(slo_class))


class TestRegistry:
    def test_four_classes_with_distinct_tiers(self):
        assert sorted(SLO_CLASSES) == ["batch", "best_effort",
                                       "interactive", "standard"]
        tiers = [cls.tier for cls in SLO_CLASSES.values()]
        assert len(set(tiers)) == 4

    def test_targets_tighten_and_values_grow_with_tier(self):
        ordered = sorted(SLO_CLASSES.values(), key=lambda c: c.tier)
        for looser, tighter in zip(ordered, ordered[1:]):
            assert tighter.ttft_target_s < looser.ttft_target_s
            assert tighter.tpot_target_s < looser.tpot_target_s
            assert tighter.value > looser.value

    def test_default_class_is_standard(self):
        assert DEFAULT_SLO_CLASS is SLO_CLASSES["standard"]

    def test_resolve_accepts_name_instance_none_and_dashes(self):
        assert resolve_slo_class("interactive") \
            is SLO_CLASSES["interactive"]
        assert resolve_slo_class("best-effort") \
            is SLO_CLASSES["best_effort"]
        instance = SLO_CLASSES["batch"]
        assert resolve_slo_class(instance) is instance
        assert resolve_slo_class(None) is None

    def test_resolve_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO class"):
            resolve_slo_class("platinum")

    def test_class_validation(self):
        with pytest.raises(ValueError, match="ttft_target_s"):
            SLOClass("bad", ttft_target_s=0.0, tpot_target_s=1.0,
                     value=1.0, tier=0)
        with pytest.raises(ValueError, match="value"):
            SLOClass("bad", ttft_target_s=1.0, tpot_target_s=1.0,
                     value=0.0, tier=0)
        with pytest.raises(ValueError, match="tpot_target_s"):
            SLOClass("bad", ttft_target_s=1.0, tpot_target_s=-1.0,
                     value=1.0, tier=0)


class TestParseClassMix:
    def test_string_mapping_and_pairs_agree(self):
        from_string = parse_class_mix("interactive=1, batch=3")
        from_mapping = parse_class_mix({"interactive": 1.0, "batch": 3.0})
        from_pairs = parse_class_mix([("batch", 3.0), ("interactive", 1.0)])
        assert from_string == from_mapping == from_pairs
        assert from_string == [("interactive", 0.25), ("batch", 0.75)]

    def test_ordered_by_tier_and_normalised(self):
        mix = parse_class_mix("best_effort=1,interactive=1,standard=2")
        assert [name for name, _ in mix] \
            == ["interactive", "standard", "best_effort"]
        assert sum(p for _, p in mix) == pytest.approx(1.0)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="not name=weight"):
            parse_class_mix("interactive")
        with pytest.raises(ValueError, match="not a number"):
            parse_class_mix("interactive=lots")
        with pytest.raises(ValueError, match="must be positive"):
            parse_class_mix("interactive=0")
        with pytest.raises(ValueError, match="listed twice"):
            parse_class_mix("batch=1,batch=2")
        with pytest.raises(ValueError, match="unknown SLO class"):
            parse_class_mix("gold=1")
        with pytest.raises(ValueError, match="at least one"):
            parse_class_mix("")


class TestRequestScore:
    def test_fresh_score_is_value_density(self):
        request = classed_request(0, "interactive",
                                  workload=Workload(60, 40))
        # 100 total tokens = exactly one cost unit, wait 0 -> urgency 1.
        assert request_score(request, now=0.0) == pytest.approx(8.0)

    def test_unclassed_request_scores_as_standard(self):
        unclassed = ServingRequest(0, Workload(60, 40), 0.0)
        standard = classed_request(1, "standard", workload=Workload(60, 40))
        assert request_score(unclassed, 0.5) \
            == pytest.approx(request_score(standard, 0.5))
        assert request_value(unclassed) == SLO_CLASSES["standard"].value

    def test_score_grows_at_least_linearly_with_wait(self):
        request = classed_request(0, "best_effort")
        base = request_score(request, 0.0)
        for wait in (1.0, 10.0, 100.0):
            assert request_score(request, wait) \
                >= base + DEFAULT_AGING_RATE * wait

    def test_fresh_arrival_score_is_bounded(self):
        """The no-starvation constant: no fresh arrival can outscore
        max_value / min_cost, so any waiter eventually overtakes all of
        them."""
        max_value = max(c.value for c in SLO_CLASSES.values())
        min_cost = 1 / 100.0   # remaining clamps at 1 token
        bound = max_value / min_cost
        for name in SLO_CLASSES:
            fresh = classed_request(0, name, arrival_s=5.0,
                                    workload=Workload(8, 8))
            assert request_score(fresh, now=5.0) <= bound
        waiter = classed_request(1, "best_effort")
        assert request_score(waiter, now=bound / DEFAULT_AGING_RATE + 60) \
            > bound

    def test_remaining_cost_prices_partial_progress(self):
        """A half-decoded request is cheaper to finish than a fresh twin,
        so lowest_score preemption protects started work."""
        fresh = classed_request(0, "standard", workload=Workload(50, 50))
        started = classed_request(1, "standard", workload=Workload(50, 50))
        started.tokens_emitted = 40
        assert request_score(started, 0.0) > request_score(fresh, 0.0)

    def test_wait_clamped_for_future_requests(self):
        request = classed_request(0, "interactive", arrival_s=10.0)
        assert request_score(request, now=0.0) \
            == pytest.approx(request_score(request, now=10.0))


class TestScorePolicies:
    def test_admission_orders_by_score_descending(self):
        now = 2.0
        requests = [classed_request(i, name, arrival_s=0.0)
                    for i, name in enumerate(
                        ["best_effort", "interactive", "standard"])]
        ordered = ScoreAdmission().order(requests, now=now)
        scores = [request_score(r, now) for r in ordered]
        assert scores == sorted(scores, reverse=True)
        assert ordered[0].slo_class.name == "interactive"

    def test_equal_scores_tie_break_on_arrival_then_id(self):
        workload = Workload(64, 36)
        same = [ServingRequest(3, workload, 0.0),
                ServingRequest(1, workload, 0.0),
                ServingRequest(2, workload, 0.0)]
        ordered = ScoreAdmission().order(same, now=1.0)
        assert [r.request_id for r in ordered] == [1, 2, 3]
        later = [ServingRequest(0, workload, 1.0),
                 ServingRequest(9, workload, 0.0)]
        # Same class + same shape: the earlier arrival scores higher (it
        # aged), so arrival order wins before the id tie-break matters.
        assert [r.request_id
                for r in ScoreAdmission().order(later, now=2.0)] == [9, 0]

    def test_admission_rejects_nonpositive_aging(self):
        with pytest.raises(ValueError, match="aging_rate"):
            ScoreAdmission(aging_rate=0.0)
        with pytest.raises(ValueError, match="aging_rate"):
            LowestScoreFirstPreemption(aging_rate=-1.0)

    def test_preemption_evicts_lowest_score(self):
        running = [classed_request(0, "interactive"),
                   classed_request(1, "best_effort"),
                   classed_request(2, "standard")]
        victim = LowestScoreFirstPreemption().select_victim(
            running, None, now=1.0)
        assert victim is running[1]

    def test_preemption_tie_breaks_on_youngest(self):
        workload = Workload(64, 36)
        running = [ServingRequest(0, workload, 0.0),
                   ServingRequest(1, workload, 0.0)]
        victim = LowestScoreFirstPreemption().select_victim(
            running, None, now=1.0)
        assert victim is running[1]


def saturating_trace(num_stream, stream_interval_s=0.13,
                     workload=Workload(48, 24)):
    """One best-effort victim at t=0 under a saturating interactive
    stream: arrivals (every 0.13 s) mildly outpace single-slot service
    (~0.16 s per request), so the queue always holds an interactive and
    a scheduler that always prefers the high tier never reaches the
    victim until the whole stream drains."""
    victim = TimedRequest(0, workload, 0.0, priority=0,
                          slo_class="best_effort")
    stream = [TimedRequest(i + 1, workload, i * stream_interval_s,
                           priority=3, slo_class="interactive")
              for i in range(num_stream)]
    return [victim] + stream


def victim_wait(admission, num_stream):
    trace = saturating_trace(num_stream)
    cluster = ServingCluster(
        GPT2, initial_replicas=1,
        scheduler_config=SchedulerConfig(max_batch_size=1,
                                         admission=admission))
    report = cluster.run(trace)
    assert report.completed == len(trace)
    # The victim is the sole best_effort request, so its class's TTFT
    # stats are its TTFT exactly.
    outcome = next(o for o in report.class_outcomes
                   if o.slo_class.name == "best_effort")
    assert outcome.completed == 1
    return outcome.ttft.mean


class TestStarvationRegression:
    """The bug the priority tier papers over: a saturating high-tier
    stream starves low tiers for as long as it keeps arriving.  The
    score scheduler's aging term makes the victim's wait independent of
    the stream length."""

    def test_priority_wait_grows_with_stream_length(self):
        short = victim_wait("priority", 30)
        long = victim_wait("priority", 60)
        # Doubling the stream roughly doubles the victim's wait — the
        # signature of starvation (wait unbounded in the trace length).
        assert long > short * 1.7

    def test_score_aging_bounds_the_wait(self):
        admission = ScoreAdmission(aging_rate=20.0)
        short = victim_wait(admission, 30)
        long = victim_wait(admission, 60)
        # Same doubling, same wait: the victim overtakes fresh
        # interactive arrivals once aging dominates, regardless of how
        # much more stream is coming.
        assert long == pytest.approx(short, rel=0.15)
        assert long < victim_wait("priority", 60)

    def test_priority_docstring_owns_the_caveat(self):
        from repro.serving.policies.admission import PriorityAdmission
        assert "starvation" in PriorityAdmission.__doc__.lower()


class TestScoreSchedulerDeterminism:
    def test_same_seed_reports_are_byte_identical(self):
        import json

        def run():
            trace = poisson_trace(
                50, 30.0, seed=21,
                slo_class_mix="interactive=1,standard=2,best_effort=1")
            cluster = ServingCluster(
                GPT2, initial_replicas=2,
                scheduler_config=SchedulerConfig(admission="score"),
                router="score", preemption="lowest_score")
            return json.dumps(cluster.run(trace).to_dict(), sort_keys=True)

        assert run() == run()
