"""Tests for the iteration-level continuous-batching scheduler."""

from collections import deque

import pytest

from repro.models.config import GPT2
from repro.models.workload import Workload
from repro.runtime.session import InferenceSession, StepTotals, StepWork
from repro.serving.request import ServingRequest
from repro.serving.scheduler import ContinuousBatchingScheduler, SchedulerConfig


def make_request(request_id: int, workload: Workload,
                 session: InferenceSession = None) -> ServingRequest:
    session = session or InferenceSession(GPT2)
    request = ServingRequest(request_id, workload, arrival_s=0.0)
    request.active = session.start_request(workload)
    return request


def scheduled(plan):
    """Every slice of the plan in execution order, decodes spelled out as
    the ``StepWork`` they stand for."""
    return [(request, StepWork("decode", 1, request.active.kv_tokens))
            for request in plan.decodes] + plan.entries


def drain_prefill(request: ServingRequest) -> None:
    """Run the request's prefill to completion so it decodes next."""
    while request.active.in_prefill:
        work = request.active.next_work()
        request.active.record(work, 0.0)


class TestConfigValidation:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            SchedulerConfig(max_batch_size=0)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError, match="token_budget"):
            SchedulerConfig(token_budget=0)


class TestStepPlanning:
    def test_running_requests_keep_their_slot(self):
        scheduler = ContinuousBatchingScheduler(SchedulerConfig(max_batch_size=2))
        running = [make_request(0, Workload(8, 8))]
        drain_prefill(running[0])
        waiting = deque([make_request(1, Workload(8, 8)),
                         make_request(2, Workload(8, 8))])
        plan = scheduler.plan_step(running, waiting)
        # The resident decode is scheduled first, one admission fills the
        # remaining slot, the second waiter stays queued.
        assert [r.request_id for r in plan.decodes] == [0]
        assert [r.request_id for r, _ in plan.entries] == [1]
        assert [r.request_id for r in plan.admitted] == [1]
        assert len(waiting) == 1

    def test_max_batch_size_caps_admission(self):
        scheduler = ContinuousBatchingScheduler(SchedulerConfig(max_batch_size=3))
        waiting = deque(make_request(i, Workload(4, 4)) for i in range(6))
        plan = scheduler.plan_step([], waiting)
        assert len(plan.admitted) == 3
        assert len(waiting) == 3

    def test_token_budget_respected(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=8, token_budget=100))
        waiting = deque(make_request(i, Workload(64, 8)) for i in range(4))
        plan = scheduler.plan_step([], waiting)
        assert plan.scheduled_tokens <= 100

    def test_chunked_prefill_splits_long_prompt(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(token_budget=32, chunked_prefill=True))
        request = make_request(0, Workload(100, 4))
        waiting = deque([request])
        plan = scheduler.plan_step([], waiting)
        work = plan.entries[0][1]
        assert work.kind == "prefill"
        assert work.tokens == 32
        request.active.record(work, 0.0)
        # Next step: the request is now running and continues its prefill.
        next_plan = scheduler.plan_step([request], deque())
        assert next_plan.entries[0][1].tokens == 32
        assert next_plan.entries[0][1].kv_len == 64

    def test_unchunked_oversized_prompt_gets_dedicated_step(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(token_budget=32, chunked_prefill=False))
        big = make_request(0, Workload(100, 4))
        small = make_request(1, Workload(4, 4))
        waiting = deque([big, small])
        plan = scheduler.plan_step([], waiting)
        # The whole prompt runs alone; FIFO order is preserved (no overtake).
        assert [r.request_id for r in plan.admitted] == [0]
        assert plan.entries[0][1].tokens == 100
        assert len(waiting) == 1

    def test_unchunked_oversized_prompt_waits_behind_partial_budget(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(token_budget=32, chunked_prefill=False))
        decoding = make_request(0, Workload(8, 8))
        drain_prefill(decoding)
        big = make_request(1, Workload(100, 4))
        waiting = deque([big])
        plan = scheduler.plan_step([decoding], waiting)
        # Budget already partially consumed: the oversized prompt is deferred
        # to a step of its own rather than squeezed in.
        assert plan.admitted == []
        assert len(plan.decodes) == 1 and plan.entries == []

    def test_resident_decodes_not_starved_by_chunked_prefill(self):
        """A long chunked prefill must not block resident decodes: decode
        slices are scheduled first, the prefill gets the leftover budget."""
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(token_budget=64, chunked_prefill=True))
        session = InferenceSession(GPT2, max_seq_len=2048)
        prefilling = make_request(0, Workload(1000, 4), session)
        decoding = make_request(1, Workload(8, 16), session)
        drain_prefill(decoding)
        # The prefill-heavy request is FIRST in the running list, yet every
        # step still carries the decode slice.
        running = [prefilling, decoding]
        for _ in range(5):
            plan = scheduler.plan_step(running, deque())
            kinds = {req.request_id: work for req, work in scheduled(plan)}
            assert kinds[1].kind == "decode"
            assert kinds[0].kind == "prefill"
            assert kinds[0].tokens == 63  # leftover after the decode token
            for req, work in scheduled(plan):
                req.active.record(work, 0.0)

    def test_empty_queues_empty_plan(self):
        scheduler = ContinuousBatchingScheduler()
        plan = scheduler.plan_step([], deque())
        assert plan.decodes == [] and plan.entries == []
        assert plan.admitted == [] and plan.totals.slices == 0


class TestStepTotals:
    def test_totals_sum_every_scheduled_slice(self):
        """The partition pass sums decodes and entries into the closed
        form the step is priced from."""
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=8, token_budget=64))
        session = InferenceSession(GPT2, max_seq_len=2048)
        decoding = [make_request(i, Workload(8 + i, 16), session)
                    for i in range(3)]
        for request in decoding:
            drain_prefill(request)
        prefilling = make_request(5, Workload(40, 4), session)
        prefilling.active.record(prefilling.active.next_work(16), 0.0)
        waiting = deque([make_request(6, Workload(100, 4), session)])
        plan = scheduler.plan_step([prefilling] + decoding, waiting)
        slices = scheduled(plan)
        assert [r.request_id for r, _ in slices] == [0, 1, 2, 5, 6]
        assert plan.totals == StepTotals.of(
            [(work.tokens, work.kv_len) for _, work in slices],
            emitting=sum(work.emits for _, work in slices))
        # Three decodes, the prompt's last 24 positions (emitting), then a
        # mid-prompt chunk of the admission in the 37 tokens left over.
        assert [work.emits for _, work in slices] == [True] * 4 + [False]
        assert plan.scheduled_tokens == 64

    def test_oversized_resident_slice_raises(self):
        """A resident unchunked prefill that cannot fit the budget breaks
        the scheduler's invariant; it fails loudly, also under -O."""
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(token_budget=32, chunked_prefill=False))
        stuck = make_request(0, Workload(100, 4))
        with pytest.raises(RuntimeError, match="resident slice exceeds"):
            scheduler.plan_step([stuck], deque())


class TestPrefillTokenCap:
    """SARATHI-style hybrid colocation: at most ``prefill_token_cap``
    prefill tokens per step, so prompt bursts cannot monopolise a batch."""

    def prefill_tokens(self, plan):
        return sum(work.tokens for _, work in plan.entries
                   if work.kind == "prefill")

    def test_cap_requires_chunked_prefill(self):
        with pytest.raises(ValueError, match="chunked_prefill"):
            SchedulerConfig(prefill_token_cap=64, chunked_prefill=False)
        with pytest.raises(ValueError, match="prefill_token_cap"):
            SchedulerConfig(prefill_token_cap=0)

    def test_every_step_respects_the_cap(self):
        cap = 24
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(token_budget=256, prefill_token_cap=cap))
        session = InferenceSession(GPT2, max_seq_len=2048)
        waiting = deque(make_request(i, Workload(100, 4), session)
                        for i in range(4))
        running = []
        for _ in range(40):
            plan = scheduler.plan_step(running, waiting)
            if not plan.totals.slices:
                break
            assert self.prefill_tokens(plan) <= cap
            for req, work in scheduled(plan):
                req.active.record(work, 0.0)
            running = [r for r in running + plan.admitted
                       if not r.active.finished]
        assert all(not r.active.in_prefill for r in running)

    def test_decodes_unaffected_by_the_cap(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(token_budget=64, prefill_token_cap=8))
        session = InferenceSession(GPT2, max_seq_len=2048)
        decoding = [make_request(i, Workload(8, 16), session)
                    for i in range(4)]
        for request in decoding:
            drain_prefill(request)
        prefilling = make_request(9, Workload(500, 4), session)
        plan = scheduler.plan_step(decoding + [prefilling], deque())
        kinds = {req.request_id: work for req, work in scheduled(plan)}
        # All four decodes keep their slot; the prefill is clipped to
        # the cap instead of the whole leftover budget.
        for i in range(4):
            assert kinds[i].kind == "decode"
        assert kinds[9].kind == "prefill"
        assert kinds[9].tokens == 8

    def test_cap_exhausted_prefill_waits_without_losing_decode(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(token_budget=64, prefill_token_cap=8))
        session = InferenceSession(GPT2, max_seq_len=2048)
        first = make_request(0, Workload(100, 4), session)
        second = make_request(1, Workload(100, 4), session)
        plan = scheduler.plan_step([first, second], deque())
        kinds = {req.request_id: work for req, work in plan.entries}
        # The first prefill consumes the whole cap; the second sits the
        # step out entirely rather than getting a zero-token slice.
        assert kinds[0].tokens == 8
        assert 1 not in kinds

    def test_admission_head_of_line_blocks_on_exhausted_cap(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(token_budget=64, prefill_token_cap=8))
        session = InferenceSession(GPT2, max_seq_len=2048)
        waiting = deque([make_request(0, Workload(100, 4), session),
                         make_request(1, Workload(100, 4), session)])
        plan = scheduler.plan_step([], waiting)
        assert [r.request_id for r in plan.admitted] == [0]
        assert self.prefill_tokens(plan) == 8
        assert len(waiting) == 1

    def test_cap_none_is_identical_to_uncapped(self):
        session_a = InferenceSession(GPT2, max_seq_len=2048)
        session_b = InferenceSession(GPT2, max_seq_len=2048)
        plans = []
        for session, config in ((session_a, SchedulerConfig()),
                                (session_b,
                                 SchedulerConfig(prefill_token_cap=None))):
            scheduler = ContinuousBatchingScheduler(config)
            waiting = deque(make_request(i, Workload(64, 8), session)
                            for i in range(3))
            plan = scheduler.plan_step([], waiting)
            plans.append([(req.request_id, work.kind, work.tokens)
                          for req, work in plan.entries])
        assert plans[0] == plans[1]
