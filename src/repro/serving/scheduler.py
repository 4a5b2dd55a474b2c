"""Iteration-level continuous-batching scheduler.

At every engine step the scheduler composes a batch of request slices under
two limits: ``max_batch_size`` concurrent requests and a ``token_budget`` of
tokens processed per step (the knob that trades TTFT against TPOT, as in
vLLM/Orca-style iteration-level scheduling).  Requests already in the batch
keep their slot and are scheduled first — a decode slice costs one token —
then waiting requests are admitted while slots and budget remain, in the
order the configured admission policy dictates (``fcfs`` by default, see
:mod:`repro.serving.policies.admission`).  Prompts longer than the remaining
budget are prefilled in chunks across steps when ``chunked_prefill`` is on;
otherwise an oversized prompt gets a dedicated step once it reaches the head
of the queue.

When a :class:`~repro.serving.kv_manager.KVBlockManager` is supplied the
plan is additionally capacity-aware: admission reserves blocks for the whole
prompt, a slice that crosses a block boundary claims another block, and a
resident whose next slice cannot be covered is reported in ``plan.starved``
instead of scheduled — the engine then preempts a running request (victim
chosen by its preemption policy) and replans.  With prefix caching on, an
admission whose group already has computed shared blocks reuses them — the
reused blocks are not charged against the free pool and the cached positions
are planned to skip prefill (``plan.prefix``); a follower whose shared
prefix is still being computed waits at the head of the queue instead of
duplicating the work.  The scheduler never mutates the manager; the block
claims and prefix reuses it decided on are listed in the plan for the engine
to apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.runtime.session import StepTotals, StepWork
from repro.serving.kv_manager import KVBlockManager, PrefixReuse
from repro.serving.policies.admission import (
    ADMISSION_POLICIES,
    resolve_admission_policy,
)
from repro.serving.request import ServingRequest

# The reuse of an admission that takes nothing from the prefix cache (no
# pool, no prefix cache, no shareable prefix, or one shorter than a
# block): one shared frozen instance, not a fresh one per admission.
_NO_REUSE = PrefixReuse()


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the iteration-level scheduler.

    Attributes:
        max_batch_size: Maximum requests resident in the batch at once.
        token_budget: Maximum tokens processed per engine step (decode
            slices cost 1, prefill slices their chunk length).
        chunked_prefill: Split prompts longer than the remaining budget
            across several steps instead of giving them a dedicated step.
        prefill_token_cap: SARATHI-style hybrid colocation — at most this
            many prefill tokens are scheduled per engine step, so prefill
            chunks stop inflating the step time the resident decodes pay
            (the middle point between a unified fleet and full
            prefill/decode disaggregation).  Requires ``chunked_prefill``;
            ``None`` (default) leaves prefill unbounded.
        admission: The admission/ordering policy deciding which waiting
            request gets the next free batch slot — a registry name
            (``fcfs`` (default, arrival order), ``priority``,
            ``shortest_prompt``, ``score``) or a constructed
            :class:`~repro.serving.policies.admission.AdmissionPolicy`
            instance for non-default parameters (e.g.
            ``ScoreAdmission(aging_rate=...)``).
    """

    max_batch_size: int = 8
    token_budget: int = 256
    chunked_prefill: bool = True
    admission: str = "fcfs"
    prefill_token_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.token_budget < 1:
            raise ValueError("token_budget must be at least 1")
        if self.prefill_token_cap is not None:
            if self.prefill_token_cap < 1:
                raise ValueError("prefill_token_cap must be at least 1")
            if not self.chunked_prefill:
                raise ValueError(
                    "prefill_token_cap requires chunked_prefill: the cap "
                    "works by clipping prefill chunks, and an unchunked "
                    "prompt cannot be clipped")
        if isinstance(self.admission, str) \
                and self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.admission!r}; "
                f"choose from {sorted(ADMISSION_POLICIES)}")


@dataclass
class StepPlan:
    """What one engine step will execute.

    ``decodes`` lists the resident requests that decode this step, in
    batch order.  A decode slice is always ``(1, kv_tokens)``, so such a
    request carries no :class:`StepWork`.  ``entries`` holds the other
    slices: resident prefill chunks, then admissions.  They run after the
    decodes.  ``totals`` sums every scheduled slice, decodes included, into
    the closed form the step cost is priced from.

    ``claims`` maps request id to the blocks that must be claimed before
    the step runs (for an admission with prefix reuse: the blocks *beyond*
    what the cache provides — new shared plus private); ``prefix`` maps an
    admitted request id to the cache reuse the plan assumed, which the
    engine applies via ``pin_prefix``/``extend_prefix``/``skip_prefix``;
    ``starved`` lists resident requests whose next slice did not fit in
    free KV blocks — a signal for the engine to preempt and replan, never a
    silent drop.
    """

    decodes: List[ServingRequest] = field(default_factory=list)
    entries: List[Tuple[ServingRequest, StepWork]] = field(default_factory=list)
    totals: StepTotals = StepTotals()
    admitted: List[ServingRequest] = field(default_factory=list)
    claims: Dict[int, int] = field(default_factory=dict)
    prefix: Dict[int, PrefixReuse] = field(default_factory=dict)
    starved: List[ServingRequest] = field(default_factory=list)

    @property
    def claimed_blocks(self) -> int:
        """KV blocks the engine must claim before executing the step."""
        return sum(self.claims.values())


class ContinuousBatchingScheduler:
    """Plans one engine step at a time over running and waiting requests."""

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config if config is not None else SchedulerConfig()
        self._admission = resolve_admission_policy(self.config.admission)

    def plan_step(self, running: List[ServingRequest],
                  waiting: Deque[ServingRequest],
                  kv: Optional[KVBlockManager] = None,
                  now: float = 0.0) -> StepPlan:
        """Compose the next step's batch.

        ``running`` requests are read but not mutated; admitted requests are
        popped from ``waiting`` and reported in ``plan.admitted`` — the
        engine owns the state transition and applies ``plan.claims``/
        ``plan.prefix`` to the KV manager.  A non-FCFS admission policy
        re-orders ``waiting`` in place before admitting (deterministically;
        admission itself still takes the head without overtaking).  ``now``
        is the device clock at this step, consumed only by time-varying
        admission orderings (``score``).  Without ``kv`` the plan is
        identical to the capacity-oblivious PR 1 scheduler.
        """
        if self._admission.reorders and len(waiting) > 1:
            ordered = self._admission.order(waiting, now)
            waiting.clear()
            waiting.extend(ordered)

        plan = StepPlan()
        budget = self.config.token_budget
        # Hybrid colocation: prefill tokens remaining this step.  The cap
        # resets every plan, so a capped prefill always advances by at
        # least one chunk per step and can never starve.
        prefill_left = self.config.prefill_token_cap
        # Idle cached prefix blocks are reclaimable on demand, so they count
        # as free for planning (always 0 without prefix caching).
        free_kv = kv.free_blocks + kv.reclaimable_blocks \
            if kv is not None else 0

        # Resident requests first: they keep their batch slot.  Decode
        # slices (1 token each) are scheduled before resident prefill
        # chunks so a long chunked prefill can never starve the decodes
        # already flowing — that is the whole point of chunking.  One
        # stable partition pass schedules the decodes and sets the
        # prefilling residents aside, so FIFO order holds within each
        # class.  This is the hottest loop of a serving run: per decode it
        # is a prefill test, the KV block check and two sums.
        decodes = plan.decodes
        entries = plan.entries
        prefilling: List[ServingRequest] = []
        decode_kv = 0
        for request in running:
            if budget <= 0:
                break
            active = request.active
            if active.prefilled_tokens < active.input_len:
                prefilling.append(request)
                continue
            kv_len = active.input_len + active.tokens_generated
            if kv is not None:
                extra = (kv.blocks_for(kv_len + 1)
                         - kv.blocks_held(request.request_id))
                if extra > free_kv:
                    plan.starved.append(request)
                    continue
                if extra > 0:
                    plan.claims[request.request_id] = extra
                    free_kv -= extra
            decodes.append(request)
            decode_kv += kv_len
            budget -= 1

        chunked = self.config.chunked_prefill
        for request in prefilling:
            if budget <= 0:
                break
            slice_budget = budget
            if prefill_left is not None:
                if prefill_left <= 0:
                    # Cap exhausted: the resident keeps its slot but its
                    # prefill does not advance this step (this is the
                    # hybrid trade, not starvation — see ``starved``).
                    continue
                slice_budget = min(budget, prefill_left)
            work = request.active.next_work(
                slice_budget if chunked else None)
            # A resident chunk always fits: chunked prefill is clipped to
            # the remaining budget, and unchunked prefill completes in its
            # admission step so never runs here.
            if work.tokens > budget:
                raise RuntimeError("resident slice exceeds budget")
            if kv is not None:
                extra = (kv.blocks_for(work.kv_tokens_after)
                         - kv.blocks_held(request.request_id))
                if extra > free_kv:
                    plan.starved.append(request)
                    continue
                if extra > 0:
                    plan.claims[request.request_id] = extra
                    free_kv -= extra
            entries.append((request, work))
            budget -= work.tokens
            if prefill_left is not None:
                prefill_left -= work.tokens

        # Admission from the (policy-ordered) queue head while slots and
        # budget remain; no overtaking — a blocked head blocks the queue.
        slots = self.config.max_batch_size - len(running)
        admission_blocked = kv is not None and kv.admission_blocked
        # Held-block growth this plan causes: claims plus idle cached
        # blocks that admissions re-reference (those re-enter "held" too).
        used_growth = plan.claimed_blocks if kv is not None else 0
        groups_planned: Set[str] = set()
        admitted = plan.admitted
        while waiting and slots > 0:
            request = waiting[0]
            reuse = _NO_REUSE
            # A prefix shorter than one block has no full block to share:
            # such requests take the plain private path untouched.
            if kv is not None and kv.prefix_cache_enabled \
                    and request.shareable_prefix \
                    and kv.cacheable_blocks(request.prefix_len) > 0:
                if request.prefix_group in groups_planned:
                    # Its shared blocks are created by an admission earlier
                    # in this very plan — they do not exist yet, so wait a
                    # step rather than plan against phantom state.
                    break
                reuse = kv.prefix_reuse(request)
                if reuse.blocked:
                    # The group's cached range is still being prefilled;
                    # admitting now would recompute rows about to become
                    # skippable.  Head-of-line wait, like any blocked head.
                    break
            work = request.active.next_work(
                budget if chunked else None, reuse.cached_tokens or None)
            if prefill_left is not None and work.kind == "prefill":
                if prefill_left <= 0:
                    # No prefill budget left this step; the head waits
                    # (no overtaking) and the cap is fresh next step.
                    break
                if work.tokens > prefill_left:
                    work = request.active.next_work(
                        min(budget, prefill_left),
                        reuse.cached_tokens or None)
            if work.tokens > budget:
                # An unchunked prompt larger than the whole budget would
                # starve forever; give it a dedicated step instead.
                if entries or budget < self.config.token_budget:
                    break
            if kv is not None:
                # Admission reserves blocks for the whole prompt up front
                # (a resumed request's prompt includes its recomputed
                # tokens), so a chunked prefill can never strand mid-prompt.
                # Reused prefix blocks already exist — only the rest is
                # charged against the free pool.
                needed = max(kv.blocks_for(request.active.workload.input_len),
                             kv.blocks_for(work.kv_tokens_after)) \
                    - reuse.reusable_blocks
                if needed > free_kv:
                    break
                # An idle device bypasses the watermark/hysteresis gates:
                # the head of the queue must always be admissible once the
                # device drains, or it would starve behind a soft limit.
                if running or entries:
                    if admission_blocked:
                        break
                    if not kv.within_high_watermark(
                            used_growth + needed + reuse.idle_reused):
                        break
                plan.claims[request.request_id] = needed
                free_kv -= needed + reuse.idle_reused
                used_growth += needed + reuse.idle_reused
                if kv.prefix_cache_enabled and request.shareable_prefix \
                        and kv.cacheable_blocks(request.prefix_len) > 0:
                    plan.prefix[request.request_id] = reuse
                    groups_planned.add(request.prefix_group)
            waiting.popleft()
            admitted.append(request)
            entries.append((request, work))
            budget -= work.tokens
            slots -= 1
            if prefill_left is not None and work.kind == "prefill":
                prefill_left -= work.tokens

        # The entries' sums inline rather than through StepTotals.of:
        # this runs every step, and the reduction's list and generator
        # cost ~5% of a decode-heavy run.  A decode slice has tokens == 1,
        # so it adds its kv_len to both kv sums and emits.
        num_decodes = len(decodes)
        tokens = kv_total = token_kv = emitting = 0
        for _, (_, work_tokens, work_kv, work_emits) in entries:
            tokens += work_tokens
            kv_total += work_kv
            token_kv += work_tokens * work_kv
            emitting += work_emits
        plan.totals = StepTotals(
            num_decodes + len(entries), num_decodes + tokens,
            decode_kv + kv_total, decode_kv + token_kv,
            num_decodes + emitting)
        return plan
