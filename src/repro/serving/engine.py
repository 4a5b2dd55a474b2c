"""The continuous-batching engine of one simulated accelerator.

This is the multi-request counterpart of :class:`~repro.runtime.InferenceSession`:
a :class:`DeviceWorker` owns one device's request queues and runs an
iteration-level continuous-batching loop over them — every engine step
executes a batch of prefill/decode slices chosen by the
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`, with the step
cost a closed form in the step's totals
(:meth:`InferenceSession.execute_step`; weights stream once per layer per
step, so batching amortises the dominant weight-streaming cost of
decoding).

Every scheduling decision is a policy object (see
:mod:`repro.serving.policies`): *admission order* is configured on the
scheduler (``SchedulerConfig.admission``) and *preemption* on the worker;
which device a request reaches is the cluster router's choice
(:mod:`repro.serving.cluster.router`).

With a :class:`~repro.serving.kv_manager.KVCacheConfig` the loop is also
memory-pressure-aware: each device owns a block pool sized from the config,
admission and decode growth claim blocks through the scheduler's plan, and
when the pool is exhausted (or crosses the high watermark) the worker
preempts the policy-chosen victim — frees its blocks, requeues it at the
head of the waiting queue, and recomputes its KV on re-admission.  Every
preemption is recorded in the report's blocks-swapped timeline.  With
``enable_prefix_cache`` the pool additionally shares ref-counted blocks
across requests of the same prefix group, and admissions skip prefill for
positions whose KV rows are already cached (the report then carries the
prefix hit rate and shared-block counters).

The worker is *step-driven*: ``step()`` advances exactly one engine
iteration and returns whether work remains, and ``advance()`` runs a steady
decode batch for a whole segment of iterations in one call.  The serving
runner, :class:`~repro.serving.cluster.ServingCluster`, holds one worker per
device of its fleet and interleaves worker steps under a global clock,
routing arrivals and scaling the fleet between steps; a fixed fleet of
``n`` workers is the ``n``-device serving simulator.  The worker is also the
fleet member itself: it carries the load signals the router and autoscaler
read (``in_system``, ``value_load``, ``kv_utilization``, ...) and its own
lifecycle (:class:`ReplicaState`: warming, active, draining, stopped).

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
from enum import Enum
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.runtime.session import InferenceSession, StepTotals
from repro.serving.kv_manager import (
    KVBlockManager,
    KVCacheConfig,
    split_kv_stream,
)
from repro.serving.metrics import (
    DeviceStats,
    PreemptionEvent,
    RequestTable,
    SampleBuffer,
    ServingReport,
    build_report,
)
from repro.serving.policies.admission import resolve_admission_policy
from repro.serving.policies.preemption import (
    PreemptionPolicy,
    resolve_preemption_policy,
)
from repro.serving.request import RequestState, ServingRequest
from repro.serving.scheduler import ContinuousBatchingScheduler, SchedulerConfig
from repro.serving.slo import DEFAULT_SLO_CLASS, request_value
from repro.serving.telemetry import SpanKind, Tracer
from repro.serving.telemetry.tracer import STALL_FLAG

# SpanKind values as plain ints: the tracer hooks sit on the engine's
# hottest loop and an attribute load per span would be measurable.
_SPAN_PREFILL = int(SpanKind.PREFILL_CHUNK)
_SPAN_DECODE = int(SpanKind.DECODE)
_SPAN_BATCH_WAIT = int(SpanKind.BATCH_WAIT)
_SPAN_KV_STALL = int(SpanKind.KV_STALL)
_SPAN_FIRST_TOKEN = int(SpanKind.FIRST_TOKEN)
_SPAN_PREFILL_STALLED = _SPAN_PREFILL + STALL_FLAG
_SPAN_DECODE_STALLED = _SPAN_DECODE + STALL_FLAG


class ReplicaState(Enum):
    """Lifecycle stage of one fleet member (see :class:`DeviceWorker`)."""

    WARMING = "warming"    # spawned, paying the warm-up cost
    ACTIVE = "active"      # routable
    DRAINING = "draining"  # finishing submitted work, accepts nothing new
    STOPPED = "stopped"    # drained dry (or crashed), KV pool released


class ReplicaRole(Enum):
    """What traffic a device serves in a (possibly disaggregated) fleet.

    ``UNIFIED`` devices — the default — run every request end to end.
    Under prefill/decode disaggregation a ``PREFILL`` device serves
    requests only through their prefill phase (handing each one off, KV
    and first token included, the moment prefill completes) and a
    ``DECODE`` device serves only migrated requests' decode phases.
    """

    UNIFIED = "unified"
    PREFILL = "prefill"
    DECODE = "decode"


# The members the per-step and per-request paths use, as module names:
# an Enum member lookup costs ~0.15-0.2 us on CPython 3.11.
_ACTIVE = ReplicaState.ACTIVE
_DRAINING = ReplicaState.DRAINING
_PREFILL = ReplicaRole.PREFILL
_RUNNING = RequestState.RUNNING
_FINISHED = RequestState.FINISHED
# The value weight ``request_value`` gives an unclassed request.
_DEFAULT_VALUE = DEFAULT_SLO_CLASS.value


def resolve_replica_role(role: Union[str, ReplicaRole]) -> ReplicaRole:
    """Accepts a role name (``unified``/``prefill``/``decode``) or enum."""
    if isinstance(role, ReplicaRole):
        return role
    try:
        return ReplicaRole(role)
    except ValueError:
        raise ValueError(
            f"unknown replica role {role!r}; choose from "
            f"{sorted(r.value for r in ReplicaRole)}") from None


@dataclass(frozen=True)
class HandoffEvent:
    """One completed prefill leaving a prefill-only worker.

    Produced by a :class:`DeviceWorker` of the ``PREFILL`` role the
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
    yet added to the residents' counters.  Those three are set when the
    batch is entered.  The rest is built at the batch's first step (see
    :meth:`DeviceWorker._build_steady`), since on arrival-heavy traffic
    most batches are settled before they take one; ``finish_at`` is None
    until then.

    ``finish_at`` is the value of ``k`` once the first resident's last
    token lands.  ``due`` is the due table of a worker with a KV pool: it
    maps a value of ``k`` to the ids of the residents whose spare rows
    (held blocks times block size, minus the rows in use) run out there,
    so the step starting at that ``k`` claims one block for each;
    ``claim_at`` is its smallest key (infinite without a pool).
    ``token_flops`` and ``head_s`` are the two step-cost terms that depend
    on the batch size but not on the KV length (the
    :class:`~repro.eval.latency.StepPricer`'s ``n * per_token`` and
    ``head_time_s(n)``).  ``spans`` holds the batch's DECODE staging
    triples, flattened once for a traced worker (they repeat every step).
    """

    __slots__ = ("decodes", "kv_len", "k", "finish_at", "due", "claim_at",
                 "token_flops", "head_s", "spans")

    def __init__(self, decodes: List[ServingRequest], kv_len: int) -> None:
        self.decodes = decodes
        self.kv_len = kv_len
        self.k = 0
        self.finish_at: Optional[int] = None
        self.due: Optional[Dict[int, List[int]]] = None
        self.claim_at = math.inf
        self.token_flops = 0.0
        self.head_s = 0.0
        self.spans: Optional[List[int]] = None


class DeviceWorker:
    """One device of the serving fleet: its continuous-batching loop, the
    load signals the router reads and its fleet lifecycle.

    Owns the waiting/running queues, the per-device scheduler instance and
    (optionally) the KV block manager of a single simulated accelerator.
    ``submit()`` hands it requests in arrival order; each ``step()`` runs one
    engine iteration — admission sweep, watermark hysteresis, plan (with
    preempt-and-replan on KV starvation), execute, record — exactly as the
    monolithic PR 1/PR 2 loop did.

    The step granularity is what the cluster tier builds on: a
    :class:`~repro.serving.cluster.ServingCluster` interleaves steps across
    its workers in global-clock order, and its router and autoscaler read
    the load signals below.  Each worker moves through one lifecycle
    (:class:`ReplicaState`):

    ``WARMING``
        Spawned but not yet serving.  Scale-up is not free — a new worker
        pays a warm-up cost before it can take traffic (by default its own
        one-time parameter-packing time, the natural deploy cost of the
        simulated accelerator; an :class:`AutoscalerConfig` may override
        it).
    ``ACTIVE``
        Routable: the router may dispatch arrivals to it.
    ``DRAINING``
        Graceful shutdown: no new submissions are accepted, but everything
        already submitted — queued and in-flight — runs to completion.
        The step that runs it dry stops it.
    ``STOPPED``
        Drained dry (or crashed); the KV pool is released.  The worker
        keeps its counters so the final per-device report is complete.

    Args:
        device_id: Fleet-unique id: the span lane, the id routers break
            ties on, and the device id of the worker's report.
        session: The device's :class:`~repro.runtime.InferenceSession`
            (model and performance model); reset and packed here, so every
            worker starts from a cold device.
        scheduler_config: Iteration-level scheduling knobs.
        preemption: Preemption policy (name or instance) under KV
            pressure.
        kv_config: Optional KV block pool, sized up front (a pool too
            small for one block fails here).
        role: The device's traffic role (:class:`ReplicaRole`, or its
            name).  ``unified`` — the default — runs every request end to
            end; ``prefill``/``decode`` are the two halves of a
            disaggregated fleet.
        kv_stream_chunks: Layer-granular chunks each hand-off's KV export
            is split into (meaningful on prefill-role workers; 1 =
            monolithic transfers).
        spawned_s: Simulated time the worker was brought up.
        warmup_s: Seconds between spawn and serving readiness.  ``None``
            charges the parameter-packing time; ``0.0`` makes the worker
            ready immediately (the initial fleet).
        tracer: Optional request-lifecycle tracer; the device id is the
            span lane.
    """

    def __init__(self, device_id: int, session: InferenceSession,
                 scheduler_config: SchedulerConfig,
                 preemption: Union[str, PreemptionPolicy] = "youngest",
                 kv_config: Optional[KVCacheConfig] = None,
                 role: Union[str, ReplicaRole] = ReplicaRole.UNIFIED,
                 kv_stream_chunks: int = 1,
                 spawned_s: float = 0.0,
                 warmup_s: Optional[float] = 0.0,
                 tracer: Optional[Tracer] = None,
                 ) -> None:
        self.device_id = device_id
        self.session = session
        self.kv_config = kv_config
        self.preemption = resolve_preemption_policy(preemption)
        # Span sink; None disables every tracing hook (the default), and
        # all hooks are observational so the report bytes cannot differ.
        self.tracer = tracer
        # A PREFILL worker serves requests only through their prefill
        # phase and hands each one off (KV exported, first token already
        # emitted) the moment its prefill completes.
        self.role = resolve_replica_role(role)
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
        # KV: samples and summed pool occupancy, added in step order.
        # Preemptions stay a typed list — they are rare events, not a
        # per-step stream.
        self.queue_samples = 0
        self.queue_depth_sum = 0
        self.queue_depth_peak = 0
        self.kv_samples = 0
        self.kv_utilization_sum = 0.0
        self.preemption_events: List[PreemptionEvent] = []

        # Every worker starts from a cold device so repeated runs (parameter
        # sweeps, benchmark repetitions) measure the same system.  A cold
        # start adds the packing to the clock (see ServingCluster).
        session.reset()
        self.packing_s = session.pack_parameters()
        self.spawned_s = spawned_s
        self.warmup_s = self.packing_s if warmup_s is None else warmup_s
        if self.warmup_s < 0:
            raise ValueError("warmup_s must be non-negative")
        self.ready_s = spawned_s + self.warmup_s
        # The clock starts at readiness: a freshly scaled-up worker
        # cannot execute a step before its warm-up elapsed.
        self.clock = self.ready_s
        self.state = ReplicaState.WARMING if self.warmup_s > 0 \
            else ReplicaState.ACTIVE
        self.stopped_s: Optional[float] = None
        # When graceful shutdown began (None if never drained) — the
        # tracer's DRAIN span runs [drain_s, stopped_s] on this lane.
        self.drain_s: Optional[float] = None
        # Whether an injected fault killed this worker (its STOPPED
        # transition was a crash, not a drained-dry stop).
        self.crashed = False
        # Every submission in order (a request submitted twice is listed
        # twice) — what the worker's report folds.
        self.requests: List[ServingRequest] = []
        # Inbound KV still streaming toward this worker, request_id ->
        # bytes remaining.  Insertion follows global landing order and
        # entries are deleted on their final chunk, so the summed signal
        # is deterministic across kernels and exactly empty once every
        # stream has drained.
        self._inbound_kv: Dict[int, float] = {}
        self.busy_s = 0.0
        self.steps = 0
        self.tokens = 0
        self.served = 0
        self.preempt_count = 0
        self.prompt_tokens = 0
        # (first-token time, TTFT, class TTFT target, class value) per
        # request, in emission order — the rolling-latency feed the
        # cluster autoscaler consumes incrementally instead of rescanning
        # every request per tick.  Unclassed requests carry an infinite
        # target (they can never "miss") and a unit weight.
        self.ttft_samples = SampleBuffer(4)
        # (finish time, TPOT) per completed request — the decode-pool
        # latency feed of the disaggregated autoscaler, same cursor idiom.
        self.tpot_samples = SampleBuffer(2)
        # Hand-off bookkeeping (stays empty unless a PREFILL worker).
        self.handoffs: List[HandoffEvent] = []
        self.handoff_count = 0
        self.migrated_in = 0
        self._kv_counters_snapshot: Optional[dict] = None
        # Sum of SLO-class value weights over requests submitted but not
        # yet finished, rejected or handed off — the load signal ``score``
        # routing balances (equal to ``in_system`` times the default class
        # value on unclassed traffic).  Class values are small dyadic
        # floats, so the running sum is exact across both kernels.
        self.value_load = 0.0
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
    # Load signals (what the router and autoscaler read)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests submitted but not yet admitted into the batch."""
        return len(self.pending) + len(self.waiting)

    @property
    def in_system(self) -> int:
        """Outstanding requests: queued plus resident in the batch."""
        return len(self.pending) + len(self.waiting) + len(self.running)

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
    def inbound_kv_bytes(self) -> float:
        """Bytes of migrated KV still streaming toward this worker — the
        in-flight-bytes-remaining signal ``kv_transfer_aware`` routing
        ranks decode workers by (0.0 with monolithic hand-offs: a
        dispatched request's KV has fully landed)."""
        total = 0.0
        for remaining in self._inbound_kv.values():
            total += remaining
        return total

    def begin_inbound(self, request_id: int, bytes_remaining: float) -> None:
        """Open an inbound stream ledger entry: the request was just
        dispatched here on its first chunk, with ``bytes_remaining`` of
        its KV still crossing the interconnect."""
        self._inbound_kv[request_id] = bytes_remaining

    def land_inbound(self, request_id: int, chunk_bytes: float,
                     final: bool) -> None:
        """Drain one landed chunk from the inbound ledger; the final
        chunk closes the entry outright (no float residue)."""
        if final:
            self._inbound_kv.pop(request_id, None)
        elif request_id in self._inbound_kv:
            self._inbound_kv[request_id] -= chunk_bytes

    def kv_shortfall_blocks(self, tokens: int) -> int:
        """Blocks an import of ``tokens`` KV rows would overdraw this
        worker's pool by right now (0 = the import fits in free plus
        reclaimable blocks, and always 0 without a KV manager) — the
        fit signal ``kv_transfer_aware`` routing ranks decode workers
        by."""
        manager = self.manager
        if manager is None or tokens <= 0:
            return 0
        needed = manager.blocks_for(tokens)
        available = manager.free_blocks + manager.reclaimable_blocks
        return max(0, needed - available)

    @property
    def next_ready_s(self) -> float:
        """Earliest simulated time the next step can start.

        The device's own clock when work is resident (or an already-arrived
        submission is waiting), otherwise the arrival of its earliest
        pending request — the moment an idle device would jump to.

        This is the time the event kernel registers into its heap (one
        valid STEP event per busy worker) and compares against its
        run-ahead horizon.  The value only moves when the worker *steps*
        or when a submission lands on an *idle* worker — submitting to a
        worker that already has work never changes it (the worker is
        either mid-batch, so its clock governs, or its earliest pending
        request is unchanged by an append).  That is what lets the kernel
        re-arm on exactly those two transitions instead of polling.
        """
        if self.waiting or self.running:
            return self.clock
        if self.pending:
            return max(self.clock, self.pending[0].enqueue_s)
        return self.clock

    @property
    def routable(self) -> bool:
        """Whether the router may dispatch new arrivals here (ACTIVE)."""
        return self.state is _ACTIVE

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def activate_if_ready(self, now: float) -> bool:
        """Promote WARMING -> ACTIVE once the warm-up elapsed."""
        if self.state is ReplicaState.WARMING and now >= self.ready_s:
            self.state = ReplicaState.ACTIVE
            return True
        return False

    def submit(self, request: ServingRequest) -> None:
        """Queue one request; callers submit in arrival order, and only
        to an ACTIVE worker."""
        if self.state is not _ACTIVE:
            raise RuntimeError(
                f"device {self.device_id} is {self.state.value} and "
                "cannot take new requests")
        self.requests.append(request)
        self.pending.append(request)
        # request_value(request), inline: this runs once per request.
        slo = request.slo_class
        self.value_load += slo.value if slo is not None else _DEFAULT_VALUE

    def take_handoffs(self) -> List[HandoffEvent]:
        """Drain the completed-prefill hand-offs accumulated since the last
        call (the cluster collects them after every prefill-worker step;
        always empty unless this is a PREFILL worker)."""
        events, self.handoffs = self.handoffs, []
        return events

    def drain(self, now: float) -> None:
        """Begin graceful shutdown: accept nothing new, finish everything
        already submitted, then release the KV pool.  An idle worker
        stops immediately."""
        if self.state in (ReplicaState.DRAINING, ReplicaState.STOPPED):
            return
        self.state = ReplicaState.DRAINING
        self.drain_s = now
        if not self.has_work:
            self.stop(max(now, self.clock))

    def stop(self, now: float) -> None:
        """Transition to STOPPED at ``now`` and drop the KV block pool (a
        drained worker giving back its memory).  Only legal once the
        worker ran dry — releasing under a live batch would silently drop
        all block accounting mid-run.  The manager's counters are
        snapshotted first so the final report still carries peak
        utilization and prefix-cache totals."""
        if self.has_work:
            raise RuntimeError(
                f"device {self.device_id} still has work in flight; "
                "drain it dry before releasing the KV pool")
        self.state = ReplicaState.STOPPED
        self.stopped_s = now
        if self.manager is not None:
            self._kv_counters_snapshot = self._kv_counters(self.manager)
            self.manager = None
            self._prefix_caching = False

    def crash(self, now: float) -> List[ServingRequest]:
        """Kill this worker at ``now`` (fault injection).

        Every in-flight request — pending, waiting and running alike —
        is lost and returned to the caller for re-dispatch; their KV
        blocks are freed and the worker stops like a drained one (counters
        snapshotted first, so the report still carries peak utilization).
        Unlike a drain this is legal under a live batch: losing the
        in-flight work is the whole point of a crash.  The caller owns
        resetting the lost requests' lifecycle state before re-dispatching
        them.  Crashing an already-STOPPED worker is a no-op (the fault
        plan may target a worker a drain beat it to)."""
        if self.state is ReplicaState.STOPPED:
            return []
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
            self.value_load -= request_value(request)
        self.running.clear()
        self.waiting.clear()
        self.pending.clear()
        self.crashed = True
        self.stop(now)
        return lost

    def report(self, model_name: str,
               table: Optional[RequestTable] = None) -> ServingReport:
        """This worker's run folded into a standard serving report.

        ``table`` is the fleet's end-of-run :class:`RequestTable`; the
        worker's requests are then folded from its rows (a request
        submitted here twice counts twice, as its repeat in
        ``requests`` does)."""
        kv_config = self.kv_config
        return build_report(
            model_name, self.requests, [self.device_stats()],
            self.preemption_events,
            prefix_cache_enabled=kv_config is not None
            and kv_config.enable_prefix_cache,
            table=table)

    # ------------------------------------------------------------------
    # The engine iteration
    # ------------------------------------------------------------------
    def _admit_arrivals(self) -> None:
        """Iteration-level admission: arrivals become visible at step
        boundaries (for a migrated request, once its KV transfer landed)."""
        manager = self.manager
        pending = self.pending
        clock = self.clock
        while pending and pending[0].enqueue_s <= clock:
            request = pending.popleft()
            request.device_id = self.device_id
            # A request whose total positions outgrow the whole block pool
            # could never finish even alone on the device; reject it up
            # front or it would preempt-thrash forever.
            if manager is not None and \
                    manager.blocks_for(request.workload.total_tokens) \
                    > manager.num_blocks:
                request.state = RequestState.REJECTED
                self.value_load -= request_value(request)
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
                self.value_load -= request_value(request)
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
        holding a steady batch when the next plan would be its decodes
        and nothing else: the step was not stream-deferred, preempted
        nothing, left admission closed (see :meth:`advance`), and no
        resident finished or was handed off, every resident ran a slice
        (a decode, a prefill chunk or its admission; block claims are
        fine), and afterwards each is past its prefill.  Such a batch
        repeats unchanged until something changes it, so after the
        admission sweep the next step runs it as ``advance(inf, 1)``: one
        step under the segment rule described there.  When that takes no
        step, the batch is settled and the step is planned.  (The event
        kernel runs a steady replica's popped step as a whole
        :meth:`advance` segment instead; see ``ServingCluster``.)

        The step that runs a DRAINING worker dry stops it (STOPPED, KV
        pool released) at the step's end.
        """
        progressed = self._iterate()
        if self.state is _DRAINING and not self.has_work:
            self.stop(self.clock)
        return progressed

    def _iterate(self) -> bool:
        """The engine iteration of :meth:`step`, without the lifecycle."""
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
        clock = self.clock
        prefix_caching = self._prefix_caching
        for request in plan.admitted:
            request.state = _RUNNING
            if request.admitted_s is None:
                request.admitted_s = clock
            if tracer is not None:
                tracer.admitted(request, clock, self.device_id)
            if request.migrated_kv_tokens:
                self.migrated_in += 1
            if prefix_caching:
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

        residents = len(running)

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
        prefill_only = self.role is _PREFILL
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
                    # The row's TTFT is request.ttft_s, the same float
                    # subtraction without the property call.
                    slo = request.slo_class
                    if slo is None:
                        self.ttft_samples.append(
                            clock, clock - request.arrival_s, math.inf, 1.0)
                    else:
                        self.ttft_samples.append(
                            clock, clock - request.arrival_s,
                            slo.ttft_target_s, slo.value)
            if prefix_caching and request.shareable_prefix \
                    and work.kind == "prefill":
                # The positions this chunk streamed are now resident: full
                # blocks within the shared prefix become reusable.
                manager.mark_prefix_computed(
                    request.prefix_group,
                    min(active.prefilled_tokens, request.prefix_len))
            if active.tokens_generated >= active.output_len:  # finished
                self._finish(request)
            elif prefill_only and not active.in_prefill:
                # Disaggregated hand-off: prefill just completed (the
                # emitting chunk above set the first token), so the
                # request leaves this worker with its KV for a decode
                # replica to continue.
                self._hand_off(request)
        self.tokens += emitted_total
        # The next plan decodes every resident, in batch order, and
        # nothing else (see step()) when each resident ran a slice within
        # the token budget, none finished or left, nothing was deferred or
        # preempted, no plan could admit and all are past their prefill.
        # Each slice's KV length grows by the row of the token it emitted.
        if len(running) == residents == len(decodes) + len(entries) \
                and not deferred and self.preempt_count == preempted_before \
                and self._admission_closed() \
                and not any(request.active.in_prefill
                            for request, _ in entries):
            self._enter_steady(list(running) if entries else decodes,
                               totals.kv_len + residents)

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
        """Hold ``decodes`` (every resident in batch order, none finished,
        all past their prefill) as steady; ``kv_len`` is the next step's
        summed KV length."""
        self._steady = _SteadyBatch(decodes, kv_len)

    def _build_steady(self, steady: _SteadyBatch) -> None:
        """Fill in the rest of ``steady`` at its first step.

        Nothing the build reads can change between the entry and the
        first step: the residents' counters and held blocks move only by
        a step, and any other step settles the batch first.  Every step
        claims the row of each token it emits (see
        ``StepWork.kv_tokens_after``), so each resident's spare rows, and
        with them the due table's keys, are never negative."""
        decodes = steady.decodes
        steady.finish_at = min(request.active.output_len
                               - request.active.tokens_generated
                               for request in decodes)
        manager = self.manager
        if manager is not None:
            block_size = self.kv_config.block_size
            due: Dict[int, List[int]] = {}
            for request in decodes:
                active = request.active
                spare = manager.blocks_held(request.request_id) \
                    * block_size - active.input_len - active.tokens_generated
                due.setdefault(spare, []).append(request.request_id)
            steady.due = due
            steady.claim_at = min(due)
        n = len(decodes)
        pricer = self.session.step_pricer
        steady.token_flops = n * pricer.per_token
        steady.head_s = pricer.head_time_s(n)

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
        A segment ends only where the planned step would differ from it,
        that is before the first step that would

        * start at or after ``horizon``;
        * start with an arrival due (``pending[0].enqueue_s <= clock``),
          which the admission sweep of :meth:`step` must see first;
        * start with a watermark preemption due (more than one resident
          and utilization past the high mark), re-checked every step;
        * or cross a block boundary whose claims do not fit even in free
          plus reclaimable (idle cached) blocks, since the planned step
          then preempts.

        It also ends after the step in which the first resident's last
        token lands.  That batch is settled before the step's KV sample,
        so the sample sees the released blocks.

        Block boundaries come from the due table (see
        :class:`_SteadyBatch`): the step starting at a due offset claims
        one private block for each resident listed there through
        :meth:`~repro.serving.kv_manager.KVBlockManager.claim_one_each`,
        which reclaims idle cached blocks in the planned step's order when
        free blocks fall short, and re-lists them one block later.  The
        pool's pressure flag is refreshed at the first step and after
        every claim, the points where utilization moves.
        """
        steady = self._steady
        if steady is None or not self._admission_closed():
            return 0
        pending = self.pending
        manager = self.manager
        n = len(steady.decodes)

        # StepPricer.step_time_s of StepTotals(n, n, K, K, n), inline; the
        # terms that do not depend on K are the same values every step, the
        # two that depend on n held since the batch's first step.  The
        # slow-node scale is read per call: a fault may change it under a
        # steady batch.
        pricer = self.session.step_pricer
        num_layers = pricer.num_layers
        weight_time_s = pricer.weight_time_s
        kv_row = pricer.kv_row
        activation_bytes = pricer.activation_bytes
        hbm_bytes_per_s = pricer.hbm_bytes_per_s
        token_flops = steady.token_flops
        per_token_kv = pricer.per_token_kv
        ops_per_s = pricer.ops_per_s
        slowdown = pricer.slowdown
        per_layer_overhead_s = pricer.per_layer_overhead_s
        head_s = steady.head_s
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
        due = steady.due
        if manager is not None:
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
            if manager is not None and n > 1 \
                    and utilization > high_watermark:
                break
            if finish_at is None:
                # The batch's first step: build the rest of it now.
                self._build_steady(steady)
                finish_at = steady.finish_at
                due = steady.due
                claim_at = steady.claim_at
                token_flops = steady.token_flops
                head_s = steady.head_s
            if manager is not None:
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
        """Retire a request whose last token landed at the current clock.

        Its ``active`` cursor is dropped: a finished request never steps
        again, and a million-request run should not keep a million
        cursors alive until its report is built."""
        clock = self.clock
        request.finish_s = clock
        request.state = _FINISHED
        request.active = None
        self.running.remove(request)
        self.served += 1
        # request_value(request) and request.tpot_s, inline with the same
        # float operations: this runs once per request.
        slo = request.slo_class
        self.value_load -= slo.value if slo is not None else _DEFAULT_VALUE
        decode_tokens = request.workload.output_len - 1
        first_token_s = request.first_token_s
        self.tpot_samples.append(
            clock, (clock - first_token_s) / decode_tokens
            if decode_tokens > 0 and first_token_s is not None else 0.0)
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
        self.value_load -= request_value(request)

    def run_until(self, horizon: float) -> int:
        """Step while work remains and the next step starts strictly
        before ``horizon``; returns the steps taken.  A steady batch runs
        a whole segment per :meth:`advance`, and the step that ends a
        segment goes through :meth:`step`.  ``run_until(math.inf)`` runs
        the worker to completion; a DRAINING worker that a segment ran dry
        stops like one a step ran dry."""
        taken = 0
        while self.has_work and self.next_ready_s < horizon:
            if self._steady is not None:
                segment = self.advance(horizon)
                if segment:
                    taken += segment
                    continue
            self.step()
            taken += 1
        if self.state is _DRAINING and not self.has_work:
            self.stop(self.clock)
        return taken

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
