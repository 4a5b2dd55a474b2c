"""Continuous-batching serving engine over the analytical FPGA model.

This is the multi-request counterpart of :class:`~repro.runtime.InferenceSession`:
requests arrive over time (a trace from :mod:`repro.serving.workload_gen`),
are sharded across ``num_devices`` simulated accelerator instances by a
pluggable placement policy, and each device runs an iteration-level
continuous-batching loop — every engine step executes a batch of
prefill/decode slices chosen by the
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`, with the step
cost a closed form in the step's totals
(:meth:`InferenceSession.execute_step`; weights stream once per layer per
step, so batching amortises the dominant weight-streaming cost of
decoding).

Every scheduling decision is a policy object (see
:mod:`repro.serving.policies`): *admission order* is configured on the
scheduler (``SchedulerConfig.admission``), *placement* and *preemption* on
the engine.  The defaults — FCFS, round-robin, youngest-first — reproduce
the PR 1/PR 2 engine byte-for-byte.

With a :class:`~repro.serving.kv_manager.KVCacheConfig` the loop is also
memory-pressure-aware: each device owns a block pool sized from the config,
admission and decode growth claim blocks through the scheduler's plan, and
when the pool is exhausted (or crosses the high watermark) the engine
preempts the policy-chosen victim — frees its blocks, requeues it at the
head of the waiting queue, and recomputes its KV on re-admission.  Every
preemption is recorded in the report's blocks-swapped timeline.  With
``enable_prefix_cache`` the pool additionally shares ref-counted blocks
across requests of the same prefix group, and admissions skip prefill for
positions whose KV rows are already cached (the report then carries the
prefix hit rate and shared-block counters).

The per-device loop itself lives in :class:`DeviceWorker`, a *step-driven*
object: ``step()`` advances exactly one engine iteration and returns whether
work remains, and ``advance()`` runs a steady decode batch for a whole
segment of iterations in one call.  ``ServingEngine`` drives each worker to
completion over its statically placed inbox; the cluster tier
(:mod:`repro.serving.cluster`) instead interleaves worker steps across many
replicas under a global clock, routing arrivals and scaling the fleet
between steps.  The worker also carries the two hooks the cluster needs:
``queue_depth`` (admission backlog, the router/autoscaler load signal) and
``drain()`` (finish everything already submitted, accept nothing new, then
release the KV pool).

Honesty note: the paper (conf_micro_YeC25) evaluates *single-request*
latency/energy and its Section 2 host runtime triggers one request at a
time; everything here — request queues, token-budget scheduling, multi-device
sharding, paged KV management, prefix caching — extrapolates beyond the
paper on top of its performance model.  It answers "what would a vLLM-style
serving tier over these accelerators look like", not "what did the paper
measure".
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.pipeline import CompilationResult
from repro.eval.latency import FpgaPerformanceModel
from repro.models.config import ModelConfig
from repro.runtime.session import InferenceSession, StepTotals
from repro.serving.kv_manager import (
    KVBlockManager,
    KVCacheConfig,
    split_kv_stream,
)
from repro.serving.metrics import (
    DeviceStats,
    PreemptionEvent,
    SampleBuffer,
    ServingReport,
    build_report,
)
from repro.serving.policies.admission import resolve_admission_policy
from repro.serving.policies.placement import (
    DeviceLoad,
    PlacementPolicy,
    resolve_placement_policy,
)
from repro.serving.policies.preemption import (
    PreemptionPolicy,
    resolve_preemption_policy,
)
from repro.serving.request import (
    RequestState,
    ServingRequest,
    requests_from_trace,
)
from repro.serving.scheduler import ContinuousBatchingScheduler, SchedulerConfig
from repro.serving.slo import request_value
from repro.serving.telemetry import (
    SpanKind,
    Tracer,
    build_manifest,
    telemetry_section,
)
from repro.serving.telemetry.tracer import STALL_FLAG
from repro.serving.workload_gen import TimedRequest

# SpanKind values as plain ints: the tracer hooks sit on the engine's
# hottest loop and an attribute load per span would be measurable.
_SPAN_PREFILL = int(SpanKind.PREFILL_CHUNK)
_SPAN_DECODE = int(SpanKind.DECODE)
_SPAN_BATCH_WAIT = int(SpanKind.BATCH_WAIT)
_SPAN_KV_STALL = int(SpanKind.KV_STALL)
_SPAN_FIRST_TOKEN = int(SpanKind.FIRST_TOKEN)
_SPAN_PREFILL_STALLED = _SPAN_PREFILL + STALL_FLAG
_SPAN_DECODE_STALLED = _SPAN_DECODE + STALL_FLAG


@dataclass(frozen=True)
class HandoffEvent:
    """One completed prefill leaving a prefill-only worker.

    Produced by a :class:`DeviceWorker` running with ``prefill_only`` the
    moment a request's last prefill chunk lands (first token emitted, KV
    fully resident): the worker drops the request and its blocks, and the
    cluster moves ``kv_bytes`` of KV state to a decode replica, charging
    the transfer against the configured interconnect bandwidth.
    """

    request: ServingRequest
    time_s: float          # worker clock when the prefill completed
    kv_tokens: int         # resident KV rows travelling with the request
    kv_bytes: float        # their size at the platform's KV quantisation
    # Layer-granular stream split of ``kv_bytes`` when the hand-off is
    # streamed (``kv_stream_chunks > 1``); empty for a monolithic move.
    chunk_bytes: Tuple[float, ...] = ()


class _SteadyBatch:
    """A decode-only batch that repeats unchanged from step to step.

    ``decodes`` is the batch (every resident, in batch order); ``kv_len``
    the next step's summed KV length; ``k`` the steady steps taken, not
    yet added to the residents' counters; ``finish_at`` the value of ``k``
    once the first resident's last token lands.  ``due`` is the due table
    of a worker with a KV pool: it maps a value of ``k`` to the ids of the
    residents whose spare rows (held blocks times block size, minus the
    rows in use) run out there, so the step starting at that ``k`` claims
    one block for each; ``claim_at`` is its smallest key (infinite without
    a pool).  ``spans`` holds the batch's DECODE staging triples,
    flattened once for a traced worker (they repeat every step).
    """

    __slots__ = ("decodes", "kv_len", "k", "finish_at", "due", "claim_at",
                 "spans")

    def __init__(self, decodes: List[ServingRequest], kv_len: int,
                 finish_at: int, due: Optional[Dict[int, List[int]]],
                 claim_at: float) -> None:
        self.decodes = decodes
        self.kv_len = kv_len
        self.k = 0
        self.finish_at = finish_at
        self.due = due
        self.claim_at = claim_at
        self.spans: Optional[List[int]] = None


class DeviceWorker:
    """One device's continuous-batching loop, advanced one step at a time.

    Owns the waiting/running queues, the per-device scheduler instance and
    (optionally) the KV block manager of a single simulated accelerator.
    ``submit()`` hands it requests in arrival order; each ``step()`` runs one
    engine iteration — admission sweep, watermark hysteresis, plan (with
    preempt-and-replan on KV starvation), execute, record — exactly as the
    monolithic PR 1/PR 2 loop did, so driving a worker to completion is
    byte-for-byte the historical ``ServingEngine`` behaviour.

    The step granularity is what the cluster tier builds on: a
    :class:`~repro.serving.cluster.ServingCluster` interleaves steps across
    replicas in global-clock order, reads ``queue_depth`` for routing and
    autoscaling decisions, and calls ``drain()``/``release_kv()`` to retire
    a replica gracefully.
    """

    def __init__(self, device_id: int, session: InferenceSession,
                 scheduler_config: SchedulerConfig,
                 preemption: PreemptionPolicy,
                 kv_config: Optional[KVCacheConfig] = None,
                 cold_start: bool = False,
                 preemption_events: Optional[List[PreemptionEvent]] = None,
                 prefill_only: bool = False,
                 kv_stream_chunks: int = 1,
                 tracer: Optional[Tracer] = None,
                 ) -> None:
        self.device_id = device_id
        self.session = session
        self.kv_config = kv_config
        self.preemption = preemption
        # Span sink; None disables every tracing hook (the default), and
        # all hooks are observational so the report bytes cannot differ.
        self.tracer = tracer
        # Disaggregated prefill role: the worker serves requests only
        # through their prefill phase and hands each one off (KV exported,
        # first token already emitted) the moment its prefill completes.
        self.prefill_only = prefill_only
        # Streamed hand-off: split each export into this many layer-
        # granular chunks (1 = monolithic, the PR 5 behaviour).
        self.kv_stream_chunks = kv_stream_chunks
        self.scheduler = ContinuousBatchingScheduler(scheduler_config)
        # A full batch can stay steady with requests waiting only if no
        # plan would touch the queue: FCFS never reorders it.
        self._admission_reorders = resolve_admission_policy(
            scheduler_config.admission).reorders
        # The steady decode batch (see ``step`` and ``advance``); None
        # while the next step needs a plan.
        self._steady: Optional[_SteadyBatch] = None
        self.pending: Deque[ServingRequest] = deque()
        self.waiting: Deque[ServingRequest] = deque()
        self.running: List[ServingRequest] = []
        self.manager: Optional[KVBlockManager] = None
        if kv_config is not None:
            self.manager = kv_config.manager_for(session.kv_bytes_per_token)
        self._prefix_caching = self.manager is not None \
            and self.manager.prefix_cache_enabled

        # Post-step occupancy summaries, O(1) per worker so memory does
        # not grow with tokens.  Queue: samples, summed and peak backlog;
        # KV: samples and summed pool occupancy, added in step order.  Preemptions stay a typed
        # list (the engine shares one across its devices) — they are rare
        # events, not a per-step stream.
        self.queue_samples = 0
        self.queue_depth_sum = 0
        self.queue_depth_peak = 0
        self.kv_samples = 0
        self.kv_utilization_sum = 0.0
        self.preemption_events = preemption_events \
            if preemption_events is not None else []

        # Every worker starts from a cold device so repeated runs (parameter
        # sweeps, benchmark repetitions) measure the same system.
        session.reset()
        self.packing_s = session.pack_parameters()
        self.clock = self.packing_s if cold_start else 0.0
        self.busy_s = 0.0
        self.steps = 0
        self.tokens = 0
        self.served = 0
        self.preempt_count = 0
        self.prompt_tokens = 0
        self.draining = False
        # (first-token time, TTFT, class TTFT target, class value) per
        # request, in emission order — the rolling-latency feed the
        # cluster autoscaler consumes incrementally instead of rescanning
        # every request per tick.  Unclassed requests carry an infinite
        # target (they can never "miss") and a unit weight.
        self.ttft_samples = SampleBuffer(4)
        # (finish time, TPOT) per completed request — the decode-pool
        # latency feed of the disaggregated autoscaler, same cursor idiom.
        self.tpot_samples = SampleBuffer(2)
        # Hand-off bookkeeping (stays empty unless prefill_only).
        self.handoffs: List[HandoffEvent] = []
        self.handoff_count = 0
        self.migrated_in = 0
        self._kv_counters_snapshot: Optional[dict] = None
        # Sum of SLO-class value weights over requests submitted but not
        # yet finished, rejected or handed off — the load signal the
        # cluster's score-aware router balances.  Class values are small
        # dyadic floats, so the running sum is exact across both kernels.
        self.value_in_system = 0.0
        # Decode stall accounting: seconds a step was stretched because a
        # resident migrated request's KV stream had not fully landed by
        # the step's natural completion (only possible with streamed
        # hand-offs, which admit at the first chunk).
        self.kv_stall_s = 0.0
        self.kv_stall_steps = 0
        # Injected slow-node degradation (fault injection): every executed
        # step's model seconds are multiplied by this factor.  1.0 — the
        # default — skips the multiply, so a fault-free run is
        # byte-identical to a build without the knob.
        self.step_time_scale = 1.0

    # ------------------------------------------------------------------
    # Cluster-facing hooks
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests submitted but not yet admitted into the batch."""
        return len(self.pending) + len(self.waiting)

    @property
    def num_running(self) -> int:
        """Requests resident in the continuous batch."""
        return len(self.running)

    @property
    def has_work(self) -> bool:
        """Whether anything is pending, waiting or running."""
        return bool(self.pending or self.waiting or self.running)

    @property
    def kv_utilization(self) -> float:
        """Current block-pool occupancy (0.0 without a KV manager)."""
        if self.manager is None:
            return 0.0
        return self.manager.utilization

    @property
    def next_ready_s(self) -> float:
        """Earliest simulated time the next step can start.

        The device's own clock when work is resident (or an already-arrived
        submission is waiting), otherwise the arrival of its earliest
        pending request — the moment an idle device would jump to.
        """
        if self.waiting or self.running:
            return self.clock
        if self.pending:
            return max(self.clock, self.pending[0].enqueue_s)
        return self.clock

    def submit(self, request: ServingRequest) -> None:
        """Queue one request; callers submit in arrival order."""
        if self.draining:
            raise RuntimeError(
                f"device {self.device_id} is draining and accepts no new "
                "requests")
        self.pending.append(request)
        self.value_in_system += request_value(request)

    def drain(self) -> None:
        """Stop accepting new submissions; already-submitted work (queued
        and in-flight) still runs to completion."""
        self.draining = True

    def take_handoffs(self) -> List[HandoffEvent]:
        """Drain the completed-prefill hand-offs accumulated since the last
        call (the cluster collects them after every prefill-replica step)."""
        events, self.handoffs = self.handoffs, []
        return events

    def release_kv(self) -> None:
        """Drop the KV block pool (a drained replica giving back its
        memory).  Only legal once the worker ran dry — releasing under a
        live batch would silently drop all block accounting mid-run.  The
        manager's counters are snapshotted first so the final report still
        carries peak utilization and prefix-cache totals."""
        if self.has_work:
            raise RuntimeError(
                f"device {self.device_id} still has work in flight; "
                "drain it dry before releasing the KV pool")
        if self.manager is not None:
            self._kv_counters_snapshot = self._kv_counters(self.manager)
            self.manager = None
            self._prefix_caching = False

    def crash(self) -> List[ServingRequest]:
        """Kill this worker immediately (fault injection).

        Every in-flight request — pending, waiting and running alike —
        is lost and returned to the caller for re-dispatch; their KV
        blocks are freed and the pool is released like a drained
        replica's (counters snapshotted first, so the report still
        carries peak utilization).  Unlike :meth:`release_kv` this is
        legal under a live batch: losing the in-flight work is the whole
        point of a crash.  The caller owns resetting the lost requests'
        lifecycle state before re-dispatching them."""
        if self._steady is not None:
            self._settle()
        lost: List[ServingRequest] = []
        lost.extend(self.running)
        lost.extend(self.waiting)
        lost.extend(self.pending)
        manager = self.manager
        for request in lost:
            if manager is not None:
                manager.release(request.request_id)
            self.value_in_system -= request_value(request)
        self.running.clear()
        self.waiting.clear()
        self.pending.clear()
        self.draining = True
        self.release_kv()
        return lost

    # ------------------------------------------------------------------
    # The engine iteration
    # ------------------------------------------------------------------
    def _admit_arrivals(self) -> None:
        """Iteration-level admission: arrivals become visible at step
        boundaries (for a migrated request, once its KV transfer landed)."""
        manager = self.manager
        while self.pending and self.pending[0].enqueue_s <= self.clock:
            request = self.pending.popleft()
            request.device_id = self.device_id
            # A request whose total positions outgrow the whole block pool
            # could never finish even alone on the device; reject it up
            # front or it would preempt-thrash forever.
            if manager is not None and \
                    manager.blocks_for(request.workload.total_tokens) \
                    > manager.num_blocks:
                request.state = RequestState.REJECTED
                self.value_in_system -= request_value(request)
                continue
            try:
                if request.migrated_kv_tokens:
                    # A hand-off: the prompt's KV rows arrived with the
                    # request, so the fresh cursor starts fully resident
                    # and the scheduler plans decode slices immediately.
                    request.active = self.session.start_request(
                        request.migration_workload())
                    request.active.assume_resident(request.migrated_kv_tokens)
                else:
                    request.active = self.session.start_request(
                        request.workload)
            except ValueError:
                request.state = RequestState.REJECTED
                self.value_in_system -= request_value(request)
                continue
            self.waiting.append(request)

    def _preempt_one(self) -> None:
        """Evict the policy-chosen victim to free KV blocks.

        Recompute-style preemption: the victim's blocks are freed instantly
        (shared prefix references released, and the victim detaches from
        the cache — its resume prompt is private), its emitted tokens
        become prompt (see :meth:`ServingRequest.resume_workload`), and it
        rejoins the *head* of the waiting queue.  Under the default
        youngest-first policy that preserves FIFO order by arrival — the
        victim was admitted before everything still waiting; other victim
        policies trade that property for their own protection goal, and a
        non-FCFS admission policy re-orders the queue anyway.
        """
        victim = self.preemption.select_victim(self.running, self.manager,
                                               now=self.clock)
        self.running.remove(victim)
        freed = self.manager.release(victim.request_id)
        self.manager.mark_pressure()
        victim.detach_prefix()
        # A preempted hand-off loses its imported KV with its blocks: the
        # re-admission below recomputes the whole (resume) prompt locally,
        # like any other victim.
        victim.migrated_kv_tokens = 0
        victim.preemptions += 1
        victim.state = RequestState.QUEUED
        victim.active = self.session.start_request(victim.resume_workload())
        self.waiting.appendleft(victim)
        self.preemption_events.append(
            PreemptionEvent(self.device_id, self.clock,
                            victim.request_id, freed))
        self.preempt_count += 1
        if self.tracer is not None:
            self.tracer.preempted(victim.request_id, self.clock,
                                  self.device_id)

    def step(self) -> bool:
        """Advance one engine iteration; returns False once all work is
        done (nothing pending, waiting or running).

        A *steady* step skips planning.  A planned step leaves the worker
        holding a steady batch when it planned decodes only (no prefill or
        admission; block claims are fine), was not stream-deferred,
        preempted nothing, left admission closed (see :meth:`advance`),
        and every resident decoded without finishing.  Such a batch
        repeats unchanged until something changes it, so after the
        admission sweep the next step runs it as ``advance(inf, 1)``: one
        step under the segment rule described there.  When that takes no
        step, the batch is settled and the step is planned.
        """
        while True:
            self._admit_arrivals()
            if self.waiting or self.running:
                break
            if not self.pending:
                return False
            self.clock = max(self.clock, self.pending[0].enqueue_s)

        if self._steady is not None:
            if self.advance(math.inf, 1):
                return True
            self._settle()

        manager = self.manager
        running = self.running
        waiting = self.waiting
        tracer = self.tracer
        step_start = self.clock
        preempted_before = self.preempt_count

        # Watermark hysteresis: growing strictly past the high mark frees
        # victims down to the low mark, so the pool does not oscillate one
        # block around the trigger point.  Strictly past — admission may
        # fill to exactly the high mark, and evicting what was just
        # admitted within policy would be pure thrash.
        if manager is not None and len(running) > 1 and \
                manager.utilization > self.kv_config.high_watermark:
            manager.mark_pressure()
            while len(running) > 1 and \
                    manager.utilization > self.kv_config.low_watermark:
                self._preempt_one()
        if manager is not None:
            manager.refresh_pressure()

        plan = self.scheduler.plan_step(running, waiting, kv=manager,
                                        now=self.clock)
        # Hard exhaustion: a resident slice did not fit in free blocks.
        # Undo this plan's tentative admissions, preempt a victim and
        # replan until every resident is covered; a lone resident always
        # fits because admission rejected anything whose total positions
        # exceed the pool.  Restore-then-preempt order matters: the
        # victim's appendleft must land last so it resumes before the
        # requests it displaced.
        while manager is not None and plan.starved and len(running) > 1:
            for request in reversed(plan.admitted):
                waiting.appendleft(request)
            self._preempt_one()
            manager.refresh_pressure()
            plan = self.scheduler.plan_step(running, waiting, kv=manager,
                                            now=self.clock)
        if not (plan.decodes or plan.entries):
            raise RuntimeError("scheduler starved with work available")
        if plan.starved:
            raise RuntimeError(
                "resident KV demand exceeds the whole block pool")

        if manager is not None:
            # Pin every admission's reusable prefix blocks first: pinned
            # blocks are referenced, so the on-demand reclamation a claim
            # may trigger can never evict a block another admission of
            # this same plan is about to reuse.
            admitted_ids = {r.request_id for r in plan.admitted}
            pins = {}
            for request in plan.admitted:
                reuse = plan.prefix.get(request.request_id)
                if reuse is not None:
                    pins[request.request_id] = manager.pin_prefix(request)
                    if pins[request.request_id] != reuse:
                        raise RuntimeError(
                            "prefix cache changed between plan and apply")
            for request_id, blocks in plan.claims.items():
                if request_id in admitted_ids:
                    continue
                manager.claim(request_id, blocks)
            for request in plan.admitted:
                claim = plan.claims.get(request.request_id, 0)
                pin = pins.get(request.request_id)
                if pin is not None:
                    claim -= manager.extend_prefix(request)
                    if pin.cached_tokens:
                        request.active.skip_prefix(pin.cached_tokens)
                if request.migrated_kv_tokens:
                    # The admission claim of a hand-off is the imported KV
                    # landing in this pool (rounded up to the blocks the
                    # first decode row needs) — tally it as migration
                    # traffic, not locally computed state.
                    manager.import_kv(request.request_id, claim)
                else:
                    manager.claim(request.request_id, claim)
        for request in plan.admitted:
            request.state = RequestState.RUNNING
            if request.admitted_s is None:
                request.admitted_s = self.clock
            if tracer is not None:
                tracer.admitted(request, self.clock, self.device_id)
            if request.migrated_kv_tokens:
                self.migrated_in += 1
            if self._prefix_caching:
                self.prompt_tokens += request.active.workload.input_len
            running.append(request)

        # Streamed hand-off deferral: an admitted migrated request whose
        # KV stream has not fully landed by the step's start cannot decode
        # yet — it keeps its batch slot and its imported blocks but sits
        # this step out, so one in-flight stream never blocks the rest of
        # the batch.  Only when *every* planned slice is waiting on its
        # stream does the device truly wait on the interconnect; that wait
        # is charged as a stall (busy time) until the earliest landing.
        # Monolithic hand-offs enqueue at full landing, so slices here
        # are always ready and the arithmetic stays byte-identical to an
        # unstreamed fleet.  Only a request admitted with migrated KV can be
        # blocked, so a worker that never admitted one (every unified
        # replica) skips the per-request scan.
        def stream_blocked(request: ServingRequest) -> bool:
            ready = request.migration_ready_s
            return ready is not None and bool(request.migrated_kv_tokens) \
                and ready > self.clock

        decodes = plan.decodes
        entries = plan.entries
        totals = plan.totals
        deferred = False
        if self.migrated_in:
            scheduled = decodes + [request for request, _ in entries]
            deferred = any(map(stream_blocked, scheduled))
            if deferred:
                if all(map(stream_blocked, scheduled)):
                    first_ready = min(request.migration_ready_s
                                      for request in scheduled)
                    stall_s = first_ready - self.clock
                    self.kv_stall_s += stall_s
                    self.kv_stall_steps += 1
                    self.busy_s += stall_s
                    self.clock = first_ready
                decodes = [request for request in decodes
                           if not stream_blocked(request)]
                entries = [(request, work) for request, work in entries
                           if not stream_blocked(request)]
                totals = self.session.step_totals(
                    (work for _, work in entries),
                    (request.active for request in decodes))

        exec_start = self.clock
        seconds = self._execute(totals)

        stage = None
        if tracer is not None:
            # One span per resident per step: executed slices get their
            # chunk span (stall-prefixed via STALL_FLAG if the whole
            # batch waited on a KV stream), deferred ones a KV_STALL,
            # scheduler-skipped residents a BATCH_WAIT (staged here,
            # before the advance loops below mutate `running`).  Together
            # they tile [step_start, clock] for every resident — the
            # partition the latency attribution relies on.  This is the
            # tracing hot path (one row per resident per step), so rows
            # go onto the step-compact staging as (kind, request_id, aux)
            # int triples — the step's times land once in step_meta, and
            # the flush expands them vectorized.
            step_list = tracer.step_entries
            staged_before = len(step_list)
            stage = step_list.extend
            if exec_start > step_start:
                kind_prefill = _SPAN_PREFILL_STALLED
                kind_decode = _SPAN_DECODE_STALLED
            else:
                kind_prefill = _SPAN_PREFILL
                kind_decode = _SPAN_DECODE
            waiting_in_batch = len(running) > plan.totals.slices
            if deferred or waiting_in_batch:
                planned = plan.decodes \
                    + [request for request, _ in plan.entries]
            if deferred:
                executed = {request.request_id for request in decodes}
                executed.update(request.request_id for request, _ in entries)
                for request in planned:
                    if request.request_id not in executed:
                        stage((_SPAN_KV_STALL, request.request_id, 0))
            if waiting_in_batch:
                planned_ids = {request.request_id for request in planned}
                for request in running:
                    if request.request_id not in planned_ids:
                        stage((_SPAN_BATCH_WAIT, request.request_id, 0))
            for request in decodes:
                stage((kind_decode, request.request_id, 1))

        # A decode-only batch holding every resident may turn steady, also
        # right after it claimed blocks, unless the next plan could admit.
        repeats = not plan.entries and not deferred \
            and self.preempt_count == preempted_before \
            and len(running) == len(decodes) and self._admission_closed()

        # Advance the decodes: each emits one token, and none can be a
        # first token (a fully prefilled cursor emitted it when its last
        # prefill chunk landed, or on the prefill replica of a hand-off)
        # or a hand-off (a prefill-only worker hands a request off in the
        # step its prefill completes).  This loop runs once per resident
        # decode per step: keep it to the counter bump and the finish.
        for request in decodes:
            active = request.active
            generated = active.tokens_generated + 1
            active.tokens_generated = generated
            request.tokens_emitted += 1
            if generated >= active.output_len:
                self._finish(request)
        emitted_total = len(decodes)

        # Prefill chunks and admissions: the rare first-token, prefix-cache
        # and hand-off transitions live here.
        clock = self.clock
        prefix_caching = self._prefix_caching
        prefill_only = self.prefill_only
        for request, work in entries:
            active = request.active
            if stage is not None:
                stage((kind_prefill if work.kind == "prefill"
                       else kind_decode,
                       request.request_id, work.tokens))
            if active.record(work, seconds):
                emitted_total += 1
                request.tokens_emitted += 1
                if request.first_token_s is None:
                    request.first_token_s = clock
                    if stage is not None:
                        stage((_SPAN_FIRST_TOKEN, request.request_id, 0))
                    slo = request.slo_class
                    self.ttft_samples.append(
                        clock, request.ttft_s,
                        slo.ttft_target_s if slo is not None
                        else float("inf"),
                        slo.value if slo is not None else 1.0)
            if prefix_caching and request.shareable_prefix \
                    and work.kind == "prefill":
                # The positions this chunk streamed are now resident: full
                # blocks within the shared prefix become reusable.
                manager.mark_prefix_computed(
                    request.prefix_group,
                    min(active.prefilled_tokens, request.prefix_len))
            if active.finished:
                self._finish(request)
            elif prefill_only and not active.in_prefill:
                # Disaggregated hand-off: prefill just completed (the
                # emitting chunk above set the first token), so the
                # request leaves this worker with its KV for a decode
                # replica to continue.
                self._hand_off(request)
        self.tokens += emitted_total
        if repeats and len(running) == len(decodes):
            # Nobody finished, so the same batch runs next step.
            self._enter_steady(decodes, totals.kv_len)

        if stage is not None:
            staged = (len(step_list) - staged_before) // 3
            if staged:
                tracer.step_meta.extend((self.device_id, step_start,
                                         exec_start, self.clock, staged))
            tracer.flush_batch()

        self._sample_occupancy()
        return True

    def _execute(self, totals: StepTotals) -> float:
        """Run one step priced from ``totals`` on the device clock and
        return its seconds."""
        seconds = self.session.execute_step(totals)
        if self.step_time_scale != 1.0:
            # A degraded node pays the multiplier on the wall clock.
            seconds = seconds * self.step_time_scale
        self.clock += seconds
        self.busy_s += seconds
        self.steps += 1
        return seconds

    def _admission_closed(self) -> bool:
        """Whether no plan could admit: nothing is waiting, or the batch
        is full and the admission policy never reorders the queue."""
        return not self.waiting \
            or (len(self.running) >= self.scheduler.config.max_batch_size
                and not self._admission_reorders)

    def _enter_steady(self, decodes: List[ServingRequest],
                      kv_len: int) -> None:
        """Hold the decode batch that just ran (every resident, none
        finished) as steady; ``kv_len`` is the step's summed KV length."""
        finish_at = min(request.active.output_len
                        - request.active.tokens_generated
                        for request in decodes)
        manager = self.manager
        due: Optional[Dict[int, List[int]]] = None
        claim_at = math.inf
        if manager is not None:
            block_size = self.kv_config.block_size
            due = {}
            for request in decodes:
                active = request.active
                spare = manager.blocks_held(request.request_id) \
                    * block_size - active.input_len - active.tokens_generated
                due.setdefault(spare, []).append(request.request_id)
            claim_at = min(due)
        self._steady = _SteadyBatch(decodes, kv_len + len(decodes),
                                    finish_at, due, claim_at)

    def advance(self, horizon: float, limit: float = math.inf) -> int:
        """Run the steady batch for up to ``limit`` steps in one loop and
        return how many it took (0 when no batch is steady).

        The steps of one call form a *segment*.  Each is the planned
        step's arithmetic: it prices ``StepTotals(n, n, K, K, n)`` (``n``
        residents, ``K`` their summed KV length) from the
        :class:`~repro.eval.latency.StepPricer` constants with the same
        float operations in the same order, applies ``step_time_scale``,
        charges clock and busy time, stages the same trace spans, and folds
        the queue and KV occupancy samples in step order.  The residents'
        counters are only bumped when the batch is settled.

        No step runs unless admission is closed (nothing waits, or the
        batch is full and the admission policy never reorders the queue).
        The segment then ends before the first step that would

        * start at or after ``horizon``;
        * start with an arrival due (``pending[0].enqueue_s <= clock``),
          which the admission sweep of :meth:`step` must see first;
        * start with a watermark preemption due (more than one resident
          and utilization past the high mark), re-checked every step;
        * or cross a block boundary whose claims do not all fit in free
          blocks, since the claim would reclaim cached blocks or starve.

        It also ends after the step in which the first resident's last
        token lands.  That batch is settled before the step's KV sample,
        so the sample sees the released blocks.

        Block boundaries come from the due table (see
        :class:`_SteadyBatch`): the step starting at a due offset claims
        one private block for each resident listed there through
        :meth:`~repro.serving.kv_manager.KVBlockManager.claim_one_each`,
        and re-lists them one block later.  The pool's pressure flag is
        refreshed at the first step and after every claim, the points
        where utilization moves.
        """
        steady = self._steady
        if steady is None or not self._admission_closed():
            return 0
        pending = self.pending
        manager = self.manager
        n = len(steady.decodes)

        # StepPricer.step_time_s of StepTotals(n, n, K, K, n), inline; the
        # terms that do not depend on K are the same values computed once.
        pricer = self.session.step_pricer
        num_layers = pricer.num_layers
        weight_time_s = pricer.weight_time_s
        kv_row = pricer.kv_row
        activation_bytes = pricer.activation_bytes
        hbm_bytes_per_s = pricer.hbm_bytes_per_s
        token_flops = n * pricer.per_token
        per_token_kv = pricer.per_token_kv
        ops_per_s = pricer.ops_per_s
        slowdown = pricer.slowdown
        per_layer_overhead_s = pricer.per_layer_overhead_s
        head_s = pricer.head_time_s(n)
        per_pass_overhead_s = pricer.per_pass_overhead_s
        scale = self.step_time_scale

        tracer = self.tracer
        if tracer is not None:
            if steady.spans is None:
                steady.spans = [value for request in steady.decodes
                                for value in (_SPAN_DECODE,
                                              request.request_id, 1)]
            spans = steady.spans
            stage = tracer.step_entries.extend
            stage_meta = tracer.step_meta.extend
            flush = tracer.flush_batch
            device_id = self.device_id

        claim_at = steady.claim_at
        if manager is not None:
            due = steady.due
            block_size = self.kv_config.block_size
            high_watermark = self.kv_config.high_watermark
            utilization = manager.utilization
            kv_sum = self.kv_utilization_sum
        refresh = True

        clock = self.clock
        busy_s = self.busy_s
        kv_len = steady.kv_len
        k = steady.k
        finish_at = steady.finish_at
        waiting_depth = len(self.waiting)
        depth_sum = self.queue_depth_sum
        depth_peak = self.queue_depth_peak
        taken = 0
        finished = False
        while taken < limit and clock < horizon:
            if pending and pending[0].enqueue_s <= clock:
                break
            if manager is not None:
                if n > 1 and utilization > high_watermark:
                    break
                if refresh:
                    manager.refresh_pressure()
                    refresh = False
                if k == claim_at:
                    crossing = due[k]
                    if not manager.claim_one_each(crossing):
                        break
                    del due[k]
                    due.setdefault(k + block_size, []).extend(crossing)
                    claim_at = min(due)
                    utilization = manager.utilization
                    refresh = True

            step_start = clock
            kv_time = kv_len * kv_row * activation_bytes / hbm_bytes_per_s
            compute_time = (token_flops + kv_len * per_token_kv) / ops_per_s
            block_s = max(weight_time_s + kv_time, compute_time) \
                * slowdown + per_layer_overhead_s
            seconds = num_layers * block_s + head_s + per_pass_overhead_s
            if scale != 1.0:
                seconds = seconds * scale
            clock += seconds
            busy_s += seconds
            if tracer is not None:
                stage(spans)
                stage_meta((device_id, step_start, step_start, clock, n))
                flush()
            kv_len += n
            k += 1
            taken += 1
            if k == finish_at:
                finished = True
                break

            queued = waiting_depth
            if pending:
                queued += sum(1 for request in pending
                              if request.enqueue_s <= clock)
            depth_sum += queued
            if queued > depth_peak:
                depth_peak = queued
            if manager is not None:
                kv_sum += utilization

        self.clock = clock
        self.busy_s = busy_s
        self.steps += taken
        self.tokens += n * taken
        steady.kv_len = kv_len
        steady.k = k
        steady.claim_at = claim_at
        sampled = taken - finished
        self.queue_samples += sampled
        self.queue_depth_sum = depth_sum
        self.queue_depth_peak = depth_peak
        if manager is not None:
            self.kv_samples += sampled
            self.kv_utilization_sum = kv_sum
        if finished:
            # The first resident's last token just landed.
            self._settle()
            self._sample_occupancy()
        return taken

    def _settle(self) -> None:
        """Add the steady steps to each resident's counters, finish the
        residents whose last token landed (in batch order) and drop the
        steady batch."""
        steady = self._steady
        self._steady = None
        k = steady.k
        if not k:
            return
        done = []
        for request in steady.decodes:
            active = request.active
            generated = active.tokens_generated + k
            active.tokens_generated = generated
            request.tokens_emitted += k
            if generated >= active.output_len:
                done.append(request)
        for request in done:
            self._finish(request)

    def _sample_occupancy(self) -> None:
        """Fold the post-step queue and KV occupancy into the summaries."""
        # Arrivals during the step sit in `pending` until the next
        # admission sweep but are already queued from the requests' point
        # of view — count them, or depth under-reports congestion.
        queued = len(self.waiting)
        if self.pending:
            clock = self.clock
            queued += sum(1 for request in self.pending
                          if request.enqueue_s <= clock)
        self.queue_samples += 1
        self.queue_depth_sum += queued
        if queued > self.queue_depth_peak:
            self.queue_depth_peak = queued
        if self.manager is not None:
            self.kv_samples += 1
            self.kv_utilization_sum += self.manager.utilization

    def _finish(self, request: ServingRequest) -> None:
        """Retire a request whose last token landed at the current clock."""
        clock = self.clock
        request.finish_s = clock
        request.state = RequestState.FINISHED
        self.running.remove(request)
        self.served += 1
        self.value_in_system -= request_value(request)
        self.tpot_samples.append(clock, request.tpot_s)
        if self.manager is not None:
            self.manager.release(request.request_id)

    def _hand_off(self, request: ServingRequest) -> None:
        """Retire a completed prefill for migration to a decode replica.

        The request's resident KV (prompt plus the first token's row) is
        exported from this worker's pool and recorded as a
        :class:`HandoffEvent`; the cluster prices the transfer and routes
        the request on.  The request detaches from any prefix group — the
        transfer moves its whole KV, shared rows included, so the decode
        side never rebuilds it from a cache.
        """
        self.running.remove(request)
        kv_tokens = request.active.kv_tokens
        kv_bytes = kv_tokens * self.session.kv_bytes_per_token
        num_layers = self.session.config.num_layers
        chunk_bytes: Tuple[float, ...] = ()
        if self.manager is not None:
            export = self.manager.export_kv(
                request.request_id, kv_tokens, kv_bytes=kv_bytes,
                num_layers=num_layers, chunks=self.kv_stream_chunks)
            chunk_bytes = export.chunk_bytes
        elif self.kv_stream_chunks > 1:
            split = split_kv_stream(kv_bytes, num_layers,
                                    self.kv_stream_chunks)
            if len(split) > 1:
                chunk_bytes = split
        request.detach_prefix()
        request.migrated_kv_tokens = kv_tokens
        request.migrations += 1
        request.state = RequestState.QUEUED
        self.handoffs.append(HandoffEvent(
            request=request, time_s=self.clock, kv_tokens=kv_tokens,
            kv_bytes=kv_bytes, chunk_bytes=chunk_bytes))
        self.handoff_count += 1
        self.value_in_system -= request_value(request)

    def run_to_completion(self) -> None:
        """Step until nothing is pending, waiting or running, running each
        steady batch a whole segment at a time."""
        while self.advance(math.inf) or self.step():
            pass

    @staticmethod
    def _kv_counters(manager: Optional[KVBlockManager]) -> dict:
        """The manager-owned DeviceStats fields (all 0 without a pool)."""
        return dict(
            kv_blocks_total=manager.num_blocks if manager else 0,
            kv_peak_blocks=manager.peak_used_blocks if manager else 0,
            prefix_tokens_reused=manager.prefix_tokens_reused
            if manager else 0,
            shared_kv_blocks_reused=manager.prefix_blocks_reused
            if manager else 0,
            shared_kv_blocks_created=manager.prefix_blocks_created
            if manager else 0,
            prefix_cow_copies=manager.prefix_cow_copies if manager else 0,
        )

    def device_stats(self) -> DeviceStats:
        """This worker's run folded into the per-device report record."""
        manager_fields = self._kv_counters_snapshot \
            if self._kv_counters_snapshot is not None \
            else self._kv_counters(self.manager)
        return DeviceStats(
            device_id=self.device_id,
            engine_steps=self.steps,
            busy_s=self.busy_s,
            final_clock_s=self.clock,
            tokens_generated=self.tokens,
            requests_served=self.served,
            packing_s=self.packing_s,
            preemptions=self.preempt_count,
            prompt_tokens=self.prompt_tokens,
            queue_samples=self.queue_samples,
            queue_depth_sum=self.queue_depth_sum,
            queue_depth_peak=self.queue_depth_peak,
            kv_samples=self.kv_samples,
            kv_utilization_sum=self.kv_utilization_sum,
            **manager_fields,
        )


class ServingEngine:
    """Schedules many concurrent generation requests over N accelerators.

    Args:
        config: The model every device serves.
        num_devices: Simulated accelerator instances; arriving requests are
            sharded across them by the placement policy.
        scheduler_config: Iteration-level scheduling knobs (batch size,
            per-step token budget, chunked prefill, admission policy).
        performance_model: Analytical accelerator model shared by all
            devices.
        compiled: Optional compilation result; as for
            :class:`InferenceSession` it decides the FIFO-sizing strategy.
        max_seq_len: Static shape hint; requests beyond it are rejected at
            arrival rather than crashing the engine.
        cold_start: Charge each device's one-time parameter packing to the
            serving clock (a cold deploy).  Off by default so throughput
            reflects the steady state with packed binaries resident.
        kv_config: Optional per-device KV-cache pool.  ``None`` (the
            default) reproduces the capacity-oblivious PR 1 engine exactly;
            with a config, scheduling is bounded by KV blocks and memory
            pressure is resolved by preemption.
        placement: Placement policy name or instance (``round_robin`` —
            the default, PR 1 behaviour — ``least_loaded``, ``kv_aware``,
            ``score``).
        preemption: Preemption policy name or instance (``youngest`` — the
            default, PR 2 behaviour — ``lowest_priority``, ``largest_kv``,
            ``lowest_score``).
        tracer: Optional request-lifecycle :class:`Tracer`; every hook is
            gated on its presence, so the default ``None`` costs nothing
            and changes nothing.
    """

    def __init__(self, config: ModelConfig,
                 num_devices: int = 1,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 performance_model: Optional[FpgaPerformanceModel] = None,
                 compiled: Optional[CompilationResult] = None,
                 max_seq_len: Optional[int] = None,
                 cold_start: bool = False,
                 kv_config: Optional[KVCacheConfig] = None,
                 placement: Union[str, PlacementPolicy] = "round_robin",
                 preemption: Union[str, PreemptionPolicy] = "youngest",
                 tracer: Optional[Tracer] = None,
                 ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        self.config = config
        self.num_devices = num_devices
        self.scheduler_config = scheduler_config or SchedulerConfig()
        self.cold_start = cold_start
        self.kv_config = kv_config
        self.placement = resolve_placement_policy(placement)
        self.preemption = resolve_preemption_policy(preemption)
        self.tracer = tracer
        self.sessions = [
            InferenceSession(config, compiled=compiled,
                             performance_model=performance_model,
                             max_seq_len=max_seq_len)
            for _ in range(num_devices)
        ]
        self._pool_blocks = 0
        if kv_config is not None:
            # Fail fast if the pool cannot hold even one block for this
            # model's KV row size.
            self._pool_blocks = kv_config.manager_for(
                self.sessions[0].kv_bytes_per_token).num_blocks

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(self, trace: Sequence[TimedRequest],
            manifest_extra: Optional[dict] = None) -> ServingReport:
        """Serve a whole trace; returns the aggregate report.

        ``manifest_extra`` lands verbatim in the report's run manifest
        (the CLI threads seeds and trace shape through it)."""
        requests = requests_from_trace(trace)
        tracer = self.tracer
        if tracer is not None:
            tracer.reset()

        # Arrival-order placement: the policy sees the same running tally a
        # front-end load balancer would (every arrival counts, including
        # requests later rejected at admission — exactly the information
        # available before admission runs).
        inboxes: List[List[ServingRequest]] = [[] for _ in range(self.num_devices)]
        loads = [DeviceLoad(device_id=i, kv_blocks_total=self._pool_blocks)
                 for i in range(self.num_devices)]
        for request in requests:
            device_id = self.placement.select_device(request, loads)
            if not 0 <= device_id < self.num_devices:
                raise ValueError(
                    f"placement policy {self.placement.name!r} chose device "
                    f"{device_id} of {self.num_devices}")
            inboxes[device_id].append(request)
            load = loads[device_id]
            load.requests += 1
            load.queued_tokens += request.workload.total_tokens
            load.weighted_tokens += (request.workload.total_tokens
                                     * request_value(request))
            if self.kv_config is not None:
                load.kv_blocks += math.ceil(request.workload.total_tokens
                                            / self.kv_config.block_size)

        devices: List[DeviceStats] = []
        preemptions: List[PreemptionEvent] = []
        for device_id, (session, inbox) in enumerate(zip(self.sessions, inboxes)):
            worker = DeviceWorker(device_id, session, self.scheduler_config,
                                  preemption=self.preemption,
                                  kv_config=self.kv_config,
                                  cold_start=self.cold_start,
                                  preemption_events=preemptions,
                                  tracer=tracer)
            for request in inbox:
                worker.submit(request)
            worker.run_to_completion()
            devices.append(worker.device_stats())

        manifest = build_manifest(
            component="engine", model=self.config.name, requests=requests,
            configs={
                "num_devices": self.num_devices,
                "cold_start": self.cold_start,
                "scheduler": self.scheduler_config,
                "kv_cache": self.kv_config,
                "placement": self.placement,
                "preemption": self.preemption,
            },
            extra=manifest_extra)
        return build_report(self.config.name, self.num_devices, requests,
                            devices, preemptions,
                            prefix_cache_enabled=self.kv_config is not None
                            and self.kv_config.enable_prefix_cache,
                            manifest=manifest,
                            telemetry=telemetry_section(tracer)
                            if tracer is not None else None)
