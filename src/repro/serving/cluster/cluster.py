"""The cluster orchestration loop: replicas + router + autoscaler.

A :class:`ServingCluster` runs a fleet of :class:`EngineReplica`s under one
global simulated clock.  The simulation is event-driven over four event
kinds, processed in deterministic time order (ties: arrival, then
KV-migration landing, then control tick, then engine step; equal-time
steps break on the lowest replica id):

* **arrival** — the next trace request reaches the front door and the
  :class:`~repro.serving.cluster.router.ClusterRouter` dispatches it to a
  routable replica using live queue/KV state (in a disaggregated fleet:
  to a *prefill* replica);
* **migration landing** (disaggregated fleets only) — a completed
  prefill's KV transfer finishes and the decode-stage router dispatches
  the request to a decode replica;
* **control tick** — the :class:`~repro.serving.cluster.autoscaler.
  Autoscaler` (when configured) observes fleet backlog and rolling p95
  TTFT and may spawn a replica (which warms up before taking traffic) or
  drain one (no new admissions, in-flight work finishes, KV released).
  A disaggregated fleet runs one control loop per role pool: prefill
  scales on its queue and TTFT, decode on migration backlog, rolling
  TPOT and KV pressure;
* **engine step** — the replica whose next step starts earliest advances
  one continuous-batching iteration (the event kernel then runs that
  replica ahead to the next arrival, control tick or fault; see
  :mod:`.events`).

With a :class:`~repro.serving.cluster.faults.FaultPlan` a fifth kind
joins the schedule at the lowest equal-time priority: **fault** events
(replica crash, slow-node onset/recovery, KV-link degradation edges),
injected identically through both kernels.  Crash-lost requests are
re-dispatched through the arrival router with a bounded retry budget
and an autoscaled fleet replaces the dead capacity (see
:mod:`.faults`).

Two interchangeable kernels drive that ordering.  The default
``kernel="event"`` is a discrete-event core (:mod:`.events`): every
future event sits in one ``heapq`` keyed ``(time, kind, tie, seq)``,
replicas register their ``next_ready_s`` into the heap instead of being
polled, and readiness changes are handled by lazy invalidation — O(log
events) per event, so million-request traces over 50-replica fleets run
in seconds.  ``kernel="step"`` is the legacy loop that rescans the live
replicas per iteration — O(replicas) per event — kept for one release as
the differential-testing reference: both kernels make byte-for-byte
identical decisions on the same trace (``tests/serving/cluster/
test_kernel_differential.py`` asserts the reports are equal), the event
kernel just finds each decision without the scan.

Replica clocks advance only through their own steps; the global ordering
just decides *which* replica steps next.  A fixed fleet (no autoscaler, no
disaggregation) is the plain ``n``-device serving simulator that
``repro serve-sim`` runs: ``initial_replicas`` devices behind the router,
optionally cold-started (each device's clock starts at its parameter-
packing time).  The cluster dispatches at arrival events, so a request
arriving during a step reaches its replica — and that replica's post-step
queue-depth sample — only after the step returns.

**Disaggregation** (:class:`DisaggregationConfig`) splits the fleet into
dedicated prefill and decode pools so the two phases stop interfering:
new arrivals only ever queue behind other prefills (TTFT is protected
from long decode batches), and decode replicas run pure token-generation
batches.  The price is the hand-off: each migrated request's resident KV
(prompt + first token) crosses the interconnect at ``kv_transfer_gbs``,
delaying its decode start and occupying the decode replica's pool on
admission.  With ``disaggregation=None`` — the default — none of this
machinery runs and the cluster is the PR 4 unified tier byte-for-byte.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.eval.latency import FpgaPerformanceModel
from repro.models.config import ModelConfig
from repro.runtime.session import InferenceSession
from repro.serving.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.serving.cluster.events import EventKind, EventQueue
from repro.serving.cluster.faults import FaultAction, FaultPlan
from repro.serving.cluster.replica import (
    EngineReplica,
    ReplicaRole,
    ReplicaState,
)
from repro.serving.cluster.report import (
    ClusterReport,
    ReplicaCountSample,
    build_cluster_report,
)
from repro.serving.cluster.router import ClusterRouter, RoutingPolicy
from repro.serving.engine import HandoffEvent
from repro.serving.kv_manager import KVCacheConfig
from repro.serving.policies.preemption import (
    PreemptionPolicy,
    resolve_preemption_policy,
)
from repro.serving.request import (
    RequestState,
    ServingRequest,
    requests_from_trace,
)
from repro.serving.scheduler import SchedulerConfig
from repro.serving.telemetry import (
    SpanKind,
    Tracer,
    build_manifest,
    telemetry_section,
)
from repro.serving.workload_gen import TimedRequest


@dataclass(frozen=True)
class DisaggregationConfig:
    """Shape of a disaggregated prefill/decode fleet.

    Attributes:
        prefill_replicas: Initial replicas dedicated to prefill (arrivals
            route here; each request is served through its prefill phase
            and first token, then handed off).
        decode_replicas: Initial replicas dedicated to decode (migrated
            requests finish their token generation here).
        kv_transfer_gbs: Interconnect bandwidth (GB/s) charged to each
            hand-off's KV payload.  ``None`` derives the default from the
            platform performance model's achieved HBM streaming bandwidth
            (``FpgaPerformanceModel.weight_stream_gbs``) — the same
            calibrated figure the engine-step cost uses, standing in for
            a device-to-device link of the same class.
        decode_router: Routing policy for the migration stage (name or
            instance); ``kv_transfer_aware`` by default, ranking decode
            replicas by their room for the imported KV.
        kv_stream_chunks: Stream each hand-off's KV as this many
            layer-granular chunks (clamped to the model's layer count).
            A streamed hand-off starts shipping *during* the prefill
            phase — a layer's KV exists as soon as that layer's prefill
            compute finishes, so all but the tail of the stream overlaps
            prefill (the credit is bounded by the request's actual
            prefill-phase span; a prompt too short to hide the stream
            exposes the remainder after hand-off).  The decode pool
            admits the request at its *first* chunk's landing; a decode
            step that outruns the stream stalls until the remaining
            layers land.  ``1`` — the default — is the PR 5 monolithic
            transfer exactly: the whole payload ships after prefill
            completes.
    """

    prefill_replicas: int = 1
    decode_replicas: int = 1
    kv_transfer_gbs: Optional[float] = None
    decode_router: Union[str, RoutingPolicy] = "kv_transfer_aware"
    kv_stream_chunks: int = 1

    def __post_init__(self) -> None:
        if self.prefill_replicas < 1:
            raise ValueError("prefill_replicas must be at least 1")
        if self.decode_replicas < 1:
            raise ValueError("decode_replicas must be at least 1")
        if self.kv_transfer_gbs is not None and self.kv_transfer_gbs <= 0:
            raise ValueError("kv_transfer_gbs must be positive")
        if self.kv_stream_chunks < 1:
            raise ValueError("kv_stream_chunks must be at least 1")

    @property
    def total_replicas(self) -> int:
        """Initial fleet size (both pools together)."""
        return self.prefill_replicas + self.decode_replicas


class _KVStream:
    """One migration's in-flight stream state, shared by its chunks.

    ``target`` is the decode replica the first chunk's dispatch picked —
    later chunks drain its inbound-bytes ledger (the ``kv_transfer_aware``
    routing signal) as they land.
    """

    __slots__ = ("handoff", "chunk_bytes", "target")

    def __init__(self, handoff: HandoffEvent,
                 chunk_bytes: Tuple[float, ...]) -> None:
        self.handoff = handoff
        self.chunk_bytes = chunk_bytes
        self.target: Optional[EngineReplica] = None


class _KVChunk:
    """One chunk's TRANSFER_LANDED payload (step-heap entry or event)."""

    __slots__ = ("stream", "index")

    def __init__(self, stream: _KVStream, index: int) -> None:
        self.stream = stream
        self.index = index

    @property
    def request(self) -> ServingRequest:
        return self.stream.handoff.request

    @property
    def final(self) -> bool:
        """True for the migration's last chunk (KV fully landed)."""
        return self.index == len(self.stream.chunk_bytes) - 1


class ServingCluster:
    """A fleet of single-device serving engines behind a router.

    Args:
        config: The model every replica serves.
        initial_replicas: Fleet size at time zero (these replicas are warm
            — their one-time packing is not charged — unless
            ``cold_start`` is set).
        router: Routing policy name or instance (``round_robin``,
            ``least_queue``, ``least_kv_pressure``, ``prefix_affinity``,
            ``kv_transfer_aware``, ``score``).
        scheduler_config: Per-replica iteration-level scheduling knobs.
        performance_model: Analytical accelerator model shared by the fleet.
        kv_config: Optional per-replica KV block pool.
        preemption: Per-replica preemption policy under KV pressure.
        autoscaler: ``AutoscalerConfig`` (or a prepared ``Autoscaler``) to
            scale the fleet from the control loop; ``None`` keeps the
            fleet fixed at ``initial_replicas``.  With disaggregation the
            same config drives one control loop per role pool (bounds
            apply per pool).
        disaggregation: ``DisaggregationConfig`` splitting the fleet into
            prefill and decode pools with a two-stage request flow.
            ``None`` — the default — is the PR 4 unified tier exactly;
            when set, the fleet size comes from the config
            (``prefill_replicas + decode_replicas``) and
            ``initial_replicas`` must be left at its default.
        kernel: Which simulation core orders the events.  ``"event"`` —
            the default — is the heap-based discrete-event kernel;
            ``"step"`` is the legacy rescan loop, kept for one release
            as the differential-testing reference.  Both produce
            identical reports on identical traces.
        tracer: Optional request-lifecycle :class:`Tracer`.  When set,
            every run records typed spans (replica id = lane), samples
            fleet gauges on arrival/control events, and the report grows
            a gated ``telemetry`` section.  ``None`` — the default — is
            zero-cost: the report is byte-identical to an untraced run.
        fault_plan: Optional deterministic :class:`FaultPlan`
            (:mod:`.faults`) injected through either kernel as
            first-class ``FAULT`` events: replica crashes (lost requests
            re-dispatched with bounded retries; an autoscaled fleet
            replaces the dead capacity), transient slow nodes, and
            transient KV-link degradation.  The report grows a gated
            ``faults`` section; ``None`` — or an *empty* plan — leaves
            every report byte-identical to an unfaulted run.
        cold_start: Charge each initial replica's one-time parameter
            packing to its clock (a cold deploy): the replica takes
            traffic from time zero but its device cannot step before the
            packed binaries are resident, so the packing lands on the
            first requests' TTFT.  Off by default, so throughput reflects
            the steady state with packed binaries resident.
    """

    KERNELS = ("event", "step")

    def __init__(self, config: ModelConfig,
                 initial_replicas: int = 1,
                 router: Union[str, RoutingPolicy] = "round_robin",
                 scheduler_config: Optional[SchedulerConfig] = None,
                 performance_model: Optional[FpgaPerformanceModel] = None,
                 kv_config: Optional[KVCacheConfig] = None,
                 preemption: Union[str, PreemptionPolicy] = "youngest",
                 autoscaler: Union[AutoscalerConfig, Autoscaler, None] = None,
                 disaggregation: Optional[DisaggregationConfig] = None,
                 kernel: str = "event",
                 tracer: Optional[Tracer] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 cold_start: bool = False,
                 ) -> None:
        if initial_replicas < 1:
            raise ValueError("initial_replicas must be at least 1")
        if kernel not in self.KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {self.KERNELS}")
        self.kernel = kernel
        self.config = config
        self.cold_start = cold_start
        self.disaggregation = disaggregation
        if disaggregation is not None:
            if initial_replicas not in (1, disaggregation.total_replicas):
                raise ValueError(
                    "a disaggregated fleet is sized by its "
                    "DisaggregationConfig (prefill_replicas + "
                    "decode_replicas); leave initial_replicas at its "
                    "default")
            initial_replicas = disaggregation.total_replicas
        self.initial_replicas = initial_replicas
        self.router = ClusterRouter(router)
        self.decode_router: Optional[ClusterRouter] = None
        self.kv_transfer_gbs: Optional[float] = None
        if disaggregation is not None:
            self.decode_router = ClusterRouter(disaggregation.decode_router)
            self.kv_transfer_gbs = disaggregation.kv_transfer_gbs \
                if disaggregation.kv_transfer_gbs is not None \
                else (performance_model
                      or FpgaPerformanceModel()).weight_stream_gbs
        self.scheduler_config = scheduler_config
        self.performance_model = performance_model
        self.kv_config = kv_config
        if kv_config is not None:
            # Fail fast on a pool too small to hold one block of this
            # model's KV rows, instead of at the first replica spawn.
            kv_config.manager_for(InferenceSession(
                config, performance_model=performance_model)
                .kv_bytes_per_token)
        # Reject an unknown policy name here, not at the first replica
        # spawn inside run().
        resolve_preemption_policy(preemption)
        self.preemption = preemption
        if isinstance(autoscaler, Autoscaler):
            self.autoscaler: Optional[Autoscaler] = autoscaler
        elif autoscaler is not None:
            self.autoscaler = Autoscaler(autoscaler)
        else:
            self.autoscaler = None
        # The decode pool of a disaggregated fleet runs its own control
        # loop (own cooldown clock and audit trail) over the same config.
        self.decode_autoscaler: Optional[Autoscaler] = None
        if self.autoscaler is not None and disaggregation is not None:
            self.decode_autoscaler = Autoscaler(self.autoscaler.config)
        if self.autoscaler is not None:
            bounds = self.autoscaler.config
            pools = [("initial_replicas", initial_replicas)]
            if disaggregation is not None:
                # Bounds apply per role pool, not to the whole fleet.
                pools = [("prefill_replicas",
                          disaggregation.prefill_replicas),
                         ("decode_replicas",
                          disaggregation.decode_replicas)]
            for label, count in pools:
                if not bounds.min_replicas <= count <= bounds.max_replicas:
                    raise ValueError(
                        f"{label}={count} outside the autoscaler bounds "
                        f"[{bounds.min_replicas}, {bounds.max_replicas}]")
        self.replicas: List[EngineReplica] = []
        # Replicas still paying their warm-up (the only ones a time
        # advance can activate): _activate_due scans this short list, not
        # the fleet, so a steady-state arrival costs O(1) here.
        self._warming: List[EngineReplica] = []
        # Routable-pool cache, keyed by role (None = the whole routable
        # fleet).  Rebuilding these lists per arrival was a measured
        # O(replicas)-per-event cost in *both* kernels; lifecycle
        # transitions are rare, so the pools are cached and invalidated
        # only at the three sites where routability changes (spawn,
        # warm-up activation, drain).  Callers must treat the returned
        # lists as read-only.
        self._pool_cache: Dict[Optional[ReplicaRole],
                               List[EngineReplica]] = {}
        self._timeline: List[ReplicaCountSample] = []
        # Rolling first-token window for the autoscaler: events consumed
        # incrementally from each worker's ttft_samples (cursor per
        # replica), expired entries dropped — O(window) per control tick
        # instead of rescanning every request.  Rows are (landed, ttft,
        # class target, class value); the last two feed the per-class
        # miss signal and are inf/1.0 for unclassed requests.
        self._ttft_cursors: Dict[int, int] = {}
        self._ttft_window: List[Tuple[float, ...]] = []
        # The decode pool's rolling completion window (TPOT), same idiom.
        self._tpot_cursors: Dict[int, int] = {}
        self._tpot_window: List[Tuple[float, float]] = []
        # In-flight KV chunk landings.  The step kernel holds them in a
        # (land_s, seq, _KVChunk) heap; the event kernel schedules them
        # as TRANSFER_LANDED events.  ``_inflight_migrations`` counts
        # whole migrations (not chunks) whose last chunk has not landed —
        # the decode autoscaler's backlog signal under both kernels (see
        # _migration_backlog).
        self._migrations: List[Tuple[float, int, _KVChunk]] = []
        self._inflight_migrations = 0
        self._migration_seq = 0
        self.kv_migrations = 0
        self.kv_bytes_transferred = 0.0
        self.kv_transfer_seconds = 0.0
        self.kv_chunks_landed = 0
        # Event-kernel instrumentation: the live EventQueue during a run
        # (None under the step kernel) and processed-event tallies.  When
        # record_events is set before run(), the popped-event log the
        # invariant tests inspect is kept in a tracer's kernel log (the
        # one event-materialization path) and read back through the
        # ``last_event_log`` property.
        self._event_queue: Optional[EventQueue] = None
        self.record_events = False
        self._event_log_tracer: Optional[Tracer] = None
        self.events_processed = 0
        self.event_counts: Dict[str, int] = {}
        # Engine steps the event kernel ran ahead of the heap (see
        # _run_event); events_processed + run_ahead_steps equals the step
        # loop's iterations.  Always 0 under the step kernel.
        self.run_ahead_steps = 0
        # Step-kernel instrumentation: loop iterations (one event each).
        self.iterations = 0
        # Request-lifecycle tracing (None = zero-cost untraced run).
        self.tracer = tracer
        self._next_sample_s = 0.0
        # Fault injection (None or an empty plan = byte-identical to an
        # unfaulted run).  The plan expands to a flat, time-sorted edge
        # deque at run() and each kernel arms exactly one FAULT event at
        # a time, like the arrival idiom.  Crash-lost requests wait in
        # ``_retry_queue`` until a routable replica exists to take them.
        self.fault_plan = fault_plan
        self._fault_actions: Deque[FaultAction] = deque()
        self._retry_queue: Deque[ServingRequest] = deque()
        self._kv_link_scale = 1.0
        self.fault_crashes = 0
        self.fault_slow_nodes = 0
        self.fault_kv_link_degradations = 0
        self.retry_dispatches = 0

    @property
    def last_event_log(self):
        """Typed :class:`~repro.serving.cluster.events.Event` records of
        the last event-kernel run, in pop order — ``None`` unless
        ``record_events`` was set before ``run()``.  A thin view: the raw
        entries live in a tracer's kernel log and are materialized here
        on access."""
        if self._event_log_tracer is None:
            return None
        return self._event_log_tracer.kernel_events()

    # ------------------------------------------------------------------
    # Fleet bookkeeping
    # ------------------------------------------------------------------
    def _spawn(self, spawned_s: float, warmup_s: Optional[float],
               role: ReplicaRole = ReplicaRole.UNIFIED) -> EngineReplica:
        replica = EngineReplica(
            len(self.replicas), self.config,
            scheduler_config=self.scheduler_config,
            performance_model=self.performance_model,
            kv_config=self.kv_config,
            preemption=self.preemption,
            spawned_s=spawned_s, warmup_s=warmup_s,
            role=role,
            kv_stream_chunks=self.disaggregation.kv_stream_chunks
            if self.disaggregation is not None else 1,
            tracer=self.tracer)
        self.replicas.append(replica)
        if replica.state is ReplicaState.WARMING:
            self._warming.append(replica)
        self._pool_cache.clear()
        return replica

    def _record(self, now: float) -> None:
        """Append a fleet-composition sample at ``now``.  Several state
        changes can land at one instant (a control tick promoting a
        warming replica and then scaling, a drain emptying at the same
        time); only the *final* composition at each time is kept, so the
        timeline records the post-control-loop count — at t=0 and at
        every later tick — never a transient intermediate."""
        sample = ReplicaCountSample(
            time_s=now,
            active=sum(r.state is ReplicaState.ACTIVE
                       for r in self.replicas),
            warming=sum(r.state is ReplicaState.WARMING
                        for r in self.replicas),
            draining=sum(r.state is ReplicaState.DRAINING
                         for r in self.replicas))
        if self._timeline and self._timeline[-1].time_s == now:
            self._timeline[-1] = sample
        else:
            self._timeline.append(sample)

    def _activate_due(self, now: float) -> None:
        """Promote every warming replica whose warm-up elapsed.  Replicas
        leave WARMING *only* through this promotion (drain victims are
        picked from the routable pool), so the short ``_warming`` list is
        exhaustive and the common case — nothing warming — is O(1)."""
        warming = self._warming
        if not warming:
            return
        still_warming = [replica for replica in warming
                        if not replica.activate_if_ready(now)]
        if len(still_warming) != len(warming):
            self._warming = still_warming
            self._pool_cache.clear()
            self._record(now)

    def _routable(self) -> List[EngineReplica]:
        """The routable fleet in ascending replica-id order (cached; see
        ``_pool_cache`` — treat as read-only)."""
        pool = self._pool_cache.get(None)
        if pool is None:
            pool = [replica for replica in self.replicas
                    if replica.routable]
            self._pool_cache[None] = pool
        return pool

    def _routable_pool(self, role: ReplicaRole) -> List[EngineReplica]:
        """One role's routable replicas (cached; treat as read-only)."""
        pool = self._pool_cache.get(role)
        if pool is None:
            pool = [replica for replica in self._routable()
                    if replica.role is role]
            self._pool_cache[role] = pool
        return pool

    def _pool(self, replicas: Sequence[EngineReplica],
              role: Optional[ReplicaRole]) -> List[EngineReplica]:
        """Filter ``replicas`` down to one role pool (``None`` = all)."""
        if role is None:
            return list(replicas)
        return [replica for replica in replicas if replica.role is role]

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    @staticmethod
    def _roll_window(replicas: Sequence[EngineReplica], now: float,
                     window_s: float, cursors: Dict[int, int],
                     window: List[Tuple[float, ...]],
                     feed: str) -> List[Tuple[float, ...]]:
        """Advance one rolling latency window over the workers' sample
        feeds (``ttft_samples`` or ``tpot_samples``).  A replica's clock
        can run ahead of the control tick (a step is atomic), so events
        beyond ``now`` stay buffered for a later tick rather than leaking
        into this one's percentile."""
        for replica in replicas:
            samples = getattr(replica.worker, feed)
            seen = cursors.get(replica.replica_id, 0)
            if seen < len(samples):
                window.extend(samples[seen:])
                cursors[replica.replica_id] = len(samples)
        window_start = now - window_s
        window[:] = [event for event in window if event[0] >= window_start]
        return window

    def _window_ttfts(self, now: float) -> List[float]:
        """TTFTs of requests whose first token landed within the trailing
        window (in a disaggregated fleet these all come from the prefill
        pool — first tokens are emitted there).  Rows are 4-wide
        (landed, ttft, class target, class value); this reads the first
        two, :meth:`_window_class_miss` the rest."""
        window = self._roll_window(
            self.replicas, now, self.autoscaler.config.ttft_window_s,
            self._ttft_cursors, self._ttft_window, "ttft_samples")
        return [row[1] for row in window if row[0] <= now]

    def _window_class_miss(self, now: float) -> Optional[float]:
        """Value-weighted fraction of the window's *classed* first tokens
        whose TTFT exceeded their own class's target — the multi-tenant
        scale-up signal, judged against ``class_miss_high``.

        Reads the window :meth:`_window_ttfts` just rolled (the two are
        always evaluated together at a control tick).  Unclassed rows
        carry an infinite target and are excluded — they cannot miss and
        must not dilute the classed evidence.  ``None`` when the signal
        is disabled, or below ``min_window_samples`` classed rows (too
        little evidence, like the rolling p95)."""
        if self.autoscaler.config.class_miss_high is None:
            return None
        total = 0.0
        missed = 0.0
        rows = 0
        for row in self._ttft_window:
            if row[0] > now or math.isinf(row[2]):
                continue
            rows += 1
            total += row[3]
            if row[1] > row[2]:
                missed += row[3]
        if rows < self.autoscaler.config.min_window_samples or total <= 0:
            return None
        return missed / total

    def _window_tpots(self, now: float) -> List[float]:
        """TPOTs of requests that completed within the trailing window on
        the decode pool — the decode autoscaler's latency signal."""
        window = self._roll_window(
            self._pool(self.replicas, ReplicaRole.DECODE), now,
            self.autoscaler.config.ttft_window_s,
            self._tpot_cursors, self._tpot_window, "tpot_samples")
        return [tpot for landed, tpot in window if landed <= now]

    def _apply_decision(self, scaler: Autoscaler, now: float, action: str,
                        routable: List[EngineReplica],
                        role: ReplicaRole) -> None:
        """Apply one pool's scale decision to the fleet."""
        if action == "up":
            self._spawn(now, scaler.config.warmup_s, role=role)
            self._record(now)
            if self.tracer is not None:
                self.tracer.metrics.inc("scale_ups")
        elif action == "down":
            # The autoscaler only decides "down" with >1 routable replica
            # in the pool, so a victim always exists and the pool's
            # traffic always keeps somewhere to go.  Drain the
            # least-loaded active replica (ties: the youngest goes first,
            # LIFO).
            victim = min(routable,
                         key=lambda r: (r.in_system, -r.replica_id))
            victim.drain(now)
            self._pool_cache.clear()
            self._record(now)
            if self.tracer is not None:
                self.tracer.metrics.inc("scale_downs")

    def _pool_counts(self, role: Optional[ReplicaRole],
                     ) -> Tuple[List[EngineReplica], int, int]:
        """One pool's (routable replicas, provisioned count, queue depth)."""
        routable = self._routable() if role is None \
            else self._routable_pool(role)
        provisioned = [replica
                       for replica in self._pool(self.replicas, role)
                       if replica.state in (ReplicaState.ACTIVE,
                                            ReplicaState.WARMING)]
        queue_depth = sum(replica.queue_depth
                          for replica in self._pool(self.replicas, role)
                          if replica.state is not ReplicaState.STOPPED)
        return routable, len(provisioned), queue_depth

    def _control(self, now: float) -> None:
        """One autoscaler evaluation, applying its decision to the fleet.

        A unified fleet runs the classic queue/TTFT loop over every
        replica; a disaggregated fleet evaluates two independent loops —
        the prefill pool on its own queue and the fleet TTFT window, the
        decode pool on migration backlog (in-flight transfers included),
        the rolling TPOT window and mean KV occupancy.
        """
        scaler = self.autoscaler
        self._activate_due(now)
        if self.disaggregation is None:
            routable, provisioned, queue_depth = self._pool_counts(None)
            window_ttfts = self._window_ttfts(now)
            action = scaler.decide(now, queue_depth, len(routable),
                                   provisioned, window_ttfts,
                                   class_miss=self._window_class_miss(now))
            self._apply_decision(scaler, now, action, routable,
                                 ReplicaRole.UNIFIED)
            return

        # Prefill pool: congestion shows up as prefill backlog and TTFT
        # (and, with the class signal on, per-class TTFT misses — first
        # tokens are emitted here).
        routable, provisioned, queue_depth = self._pool_counts(
            ReplicaRole.PREFILL)
        window_ttfts = self._window_ttfts(now)
        action = scaler.decide(now, queue_depth, len(routable),
                               provisioned, window_ttfts,
                               class_miss=self._window_class_miss(now))
        self._apply_decision(scaler, now, action, routable,
                             ReplicaRole.PREFILL)

        # Decode pool: backlog is everything migrating towards it (KV
        # still in flight counts — it is committed demand) plus whatever
        # sits queued at decode replicas; latency is TPOT; memory is the
        # pool-mean KV occupancy.
        decode_scaler = self.decode_autoscaler
        routable, provisioned, queue_depth = self._pool_counts(
            ReplicaRole.DECODE)
        queue_depth += self._migration_backlog()
        kv_utilization = None
        if routable and self.kv_config is not None:
            kv_utilization = sum(r.kv_utilization for r in routable) \
                / len(routable)
        action = decode_scaler.decide(
            now, queue_depth, len(routable), provisioned,
            window_ttfts=[], window_tpots=self._window_tpots(now),
            kv_utilization=kv_utilization)
        self._apply_decision(decode_scaler, now, action, routable,
                             ReplicaRole.DECODE)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    @staticmethod
    def _reset_for_retry(request: ServingRequest) -> None:
        """Roll a crash-lost request back to a fresh QUEUED arrival.

        Everything the lost replica produced is gone — emitted tokens,
        admission, any migrated KV — so the retry recomputes from its
        original prompt, and its eventual TTFT (measured from the
        original ``arrival_s``, untouched here) is the recovery time the
        client actually saw.  The prefix handle is detached for the same
        reason preemption detaches it: the shared blocks the request was
        counted against died with the replica's pool."""
        request.state = RequestState.QUEUED
        request.device_id = None
        request.active = None
        request.admitted_s = None
        request.first_token_s = None
        request.finish_s = None
        request.tokens_emitted = 0
        request.detach_prefix()
        request.migrated_kv_tokens = 0
        request.migration_ready_s = None
        request.kv_first_chunk_s = None

    def _apply_fault(self, now: float, action: FaultAction,
                     enlist) -> Optional[int]:
        """Apply one fault edge at ``now``.  Returns the replica id of an
        actually-applied crash — the kernel must drop the dead replica
        from its step bookkeeping — or ``None``.

        Edges targeting an out-of-range or already-STOPPED replica are
        harmless no-ops (a random plan may outlive its target), and only
        applied faults count toward the report's ``faults`` section."""
        kind = action.kind
        replicas = self.replicas
        if kind == "crash":
            rid = action.replica_id
            if rid >= len(replicas):
                return None
            replica = replicas[rid]
            if replica.state is ReplicaState.STOPPED:
                return None
            was_warming = replica.state is ReplicaState.WARMING
            # Both kernels commit an engine step atomically at its start
            # event, so the target may hold committed work — spans,
            # token emissions, even completions — past the fault's
            # nominal time.  The crash takes effect at that *committed
            # horizon* (the worker clock, i.e. the end of a straddling
            # step): everything recorded stands, and a dead replica has
            # no record of work past its death instant.
            worker = replica.worker
            death = max(now, worker.clock) if worker.steps else now
            lost = replica.crash(death)
            self.fault_crashes += 1
            if was_warming:
                self._warming.remove(replica)
            self._pool_cache.clear()
            self._record(now)
            tracer = self.tracer
            if tracer is not None:
                tracer.instant(SpanKind.CRASH, death, lane=rid,
                               aux=float(len(lost)))
            max_retries = self.fault_plan.max_retries
            for request in sorted(lost, key=lambda r: r.request_id):
                request.retries += 1
                if request.retries > max_retries:
                    request.state = RequestState.FAILED
                    continue
                if tracer is not None:
                    # A request lost mid-batch has spans up to the death
                    # instant and starts queueing again there; one lost
                    # while still waiting keeps its running queue wait.
                    tracer.requeued(request.request_id,
                                    death if request.admitted_s is not None
                                    else request.enqueue_s)
                self._reset_for_retry(request)
                self._retry_queue.append(request)
            self._flush_retries(death, enlist)
            return rid
        if kind == "slow_on":
            rid = action.replica_id
            if rid < len(replicas) \
                    and replicas[rid].state is not ReplicaState.STOPPED:
                replicas[rid].worker.step_time_scale = action.scale
                self.fault_slow_nodes += 1
        elif kind == "slow_off":
            if action.replica_id < len(replicas):
                replicas[action.replica_id].worker.step_time_scale = 1.0
        elif kind == "kvlink_on":
            self._kv_link_scale = action.scale
            self.fault_kv_link_degradations += 1
        else:  # kvlink_off
            self._kv_link_scale = 1.0
        return None

    def _flush_retries(self, now: float, enlist) -> None:
        """Re-dispatch queued crash retries through the arrival router.

        Retries re-enter at the front door — the whole routable fleet,
        or the *prefill* pool of a disaggregated fleet, so a lost decode
        request's KV is recomputed and re-migrated.  With no routable
        replica: an autoscaled fleet (or one with a spare still warming)
        holds the queue for a later control tick or activation — the run
        loop stays alive until the queue drains — while a fixed fleet
        with nothing warming fails the requests outright, because no
        capacity can ever appear."""
        if not self._retry_queue:
            return
        self._activate_due(now)
        pool = self._routable() if self.disaggregation is None \
            else self._routable_pool(ReplicaRole.PREFILL)
        tracer = self.tracer
        if pool:
            while self._retry_queue:
                request = self._retry_queue.popleft()
                # The retry becomes admissible *now*, not at its original
                # arrival — an idle replica must not start it in the past.
                request.requeued_s = now
                if tracer is not None:
                    tracer.instant(SpanKind.RETRY, now,
                                   request.request_id,
                                   aux=float(request.retries))
                enlist(self.router.dispatch(request, pool))
                self.retry_dispatches += 1
            return
        if self.autoscaler is None and not self._warming:
            while self._retry_queue:
                self._retry_queue.popleft().state = RequestState.FAILED

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def _migration_backlog(self) -> int:
        """KV migrations still in flight (whole requests, not chunks),
        whichever kernel runs — the committed-demand part of the decode
        pool's backlog signal."""
        return self._inflight_migrations

    def _sample_metrics(self, now: float) -> None:
        """Sample the fleet gauges into the tracer's metrics registry.

        Called at arrival dispatches and control-tick evaluations — the
        same instants under both kernels, so traced reports stay
        kernel-identical — and throttled to ``metrics_interval_s`` of
        *simulated* time so a burst of same-instant events costs one
        sample."""
        tracer = self.tracer
        if tracer is None or now < self._next_sample_s:
            return
        self._next_sample_s = now + tracer.metrics_interval_s
        queue_depth = 0
        value_load = 0.0
        active = 0
        live = 0
        kv_utilization = 0.0
        for replica in self.replicas:
            state = replica.state
            if state is ReplicaState.STOPPED:
                continue
            queue_depth += replica.queue_depth
            value_load += replica.value_load
            live += 1
            kv_utilization += replica.kv_utilization
            if state is ReplicaState.ACTIVE:
                active += 1
        metrics = tracer.metrics
        metrics.sample("queue_depth", now, float(queue_depth))
        metrics.sample("value_load", now, value_load)
        metrics.sample("active_replicas", now, float(active))
        metrics.sample("migrations_in_flight", now,
                       float(self._inflight_migrations))
        if self.kv_config is not None and live:
            metrics.sample("kv_utilization", now, kv_utilization / live)

    def _price_migrations(self, replica: EngineReplica) -> None:
        """Price and enqueue the KV transfers of a prefill replica's
        fresh hand-offs.  Each hand-off becomes one or more chunk
        landings — a heap entry under the step kernel, a
        ``TRANSFER_LANDED`` event under the event kernel (same
        ``(land_s, seq)`` order): the first chunk's landing makes the
        request routable to the decode pool, the last marks its KV fully
        resident.

        A streamed hand-off (``kv_stream_chunks > 1``) began shipping
        *during* the prefill phase — layer ``l``'s KV exists once layer
        ``l``'s prefill compute finished, so the head of the stream
        overlapped prefill and only the tail is exposed after the
        hand-off instant.  The overlap credit is the serialisation time
        of every chunk but the last, bounded by the request's actual
        prefill-phase span (admission to hand-off): a prompt whose
        prefill was too short to hide the head pays the remainder on
        the wire after hand-off, and no chunk ever lands before the
        hand-off itself (the request isn't routable until its prefill
        replica released it).  A monolithic hand-off ships everything
        after prefill completes — the PR 5 behaviour unchanged.  A
        zero-byte hand-off is guarded to land immediately as one
        degenerate chunk regardless of the configured split."""
        tracer = self.tracer
        # Hand-offs are priced at the link's *current* bandwidth: a
        # transient KV-link degradation (fault injection) multiplies the
        # nominal figure while its window is open; transfers already in
        # flight keep the landing times they were priced with.  The
        # nominal scale of 1.0 multiplies exactly, so unfaulted runs are
        # byte-identical.
        link_gbs = self.kv_transfer_gbs * self._kv_link_scale \
            if self.kv_transfer_gbs is not None else None
        for handoff in replica.take_handoffs():
            request = handoff.request
            chunk_bytes = handoff.chunk_bytes
            if not chunk_bytes or handoff.kv_bytes <= 0:
                chunk_bytes = (handoff.kv_bytes,)
            self.kv_migrations += 1
            self.kv_bytes_transferred += handoff.kv_bytes
            self._inflight_migrations += 1
            stream = _KVStream(handoff, chunk_bytes)
            last = len(chunk_bytes) - 1
            land_s = handoff.time_s
            if last > 0:
                head_s = 0.0
                for size in chunk_bytes[:-1]:
                    head_s += size / (link_gbs * 1e9)
                span_s = handoff.time_s - request.admitted_s \
                    if request.admitted_s is not None else 0.0
                land_s = handoff.time_s - min(head_s, span_s)
            for index, size in enumerate(chunk_bytes):
                transfer_s = size / (link_gbs * 1e9)
                land_s = land_s + transfer_s
                self.kv_transfer_seconds += transfer_s
                landed_s = land_s if land_s > handoff.time_s \
                    else handoff.time_s
                if index == 0:
                    request.kv_first_chunk_s = landed_s
                if index == last:
                    request.migration_ready_s = landed_s
                if tracer is not None:
                    rid = request.request_id
                    if index == 0:
                        # The latency-partition transfer span: hand-off
                        # instant to first-chunk landing (the decode-side
                        # QUEUE span opens exactly where this one closes).
                        tracer.span(SpanKind.KV_TRANSFER, handoff.time_s,
                                    landed_s, rid, aux=handoff.kv_bytes)
                    if last > 0:
                        # Wire detail on the interconnect lane: one span
                        # per streamed chunk, unclamped — the head of a
                        # stream genuinely overlaps the prefill phase.
                        tracer.span(SpanKind.STREAM_CHUNK,
                                    land_s - transfer_s, land_s, rid,
                                    aux=size)
                self._migration_seq += 1
                chunk = _KVChunk(stream, index)
                if self._event_queue is not None:
                    self._event_queue.push(landed_s,
                                           EventKind.TRANSFER_LANDED,
                                           tie=self._migration_seq,
                                           payload=chunk)
                else:
                    heapq.heappush(self._migrations,
                                   (landed_s, self._migration_seq, chunk))

    def _land_chunk(self, land_s: float,
                    chunk: _KVChunk) -> Optional[EngineReplica]:
        """Handle one chunk landing (either kernel).  Returns the decode
        replica the request was dispatched to when this was the first
        chunk — the caller enlists it — or ``None`` for later chunks,
        which only drain the target's inbound ledger."""
        stream = chunk.stream
        if chunk.final:
            self._inflight_migrations -= 1
        self._activate_due(land_s)
        self.kv_chunks_landed += 1
        request = stream.handoff.request
        if chunk.index == 0:
            replica = self.decode_router.dispatch(
                request, self._routable_pool(ReplicaRole.DECODE))
            if not chunk.final:
                remaining = 0.0
                for size in stream.chunk_bytes[1:]:
                    remaining += size
                stream.target = replica
                replica.begin_inbound(request.request_id, remaining)
            return replica
        stream.target.land_inbound(request.request_id,
                                   stream.chunk_bytes[chunk.index],
                                   chunk.final)
        return None

    def _run_step(self, arrivals: "Deque[ServingRequest]",
                  scaler: Optional[Autoscaler]) -> None:
        """The legacy rescan loop (``kernel="step"``): each iteration
        compares the four candidate event times and processes the
        earliest.  Kept as the differential-testing reference.

        Two latent per-iteration costs of the original loop are fixed in
        this extraction: the ``live`` list is maintained incrementally
        (a replica enters on its first submission, leaves when a step
        runs it dry) instead of being rebuilt from the whole fleet —
        stopped replicas included — every iteration, and the next
        arrival time is hoisted out of the loop instead of re-peeked.
        The min-scan over ``live`` remains: that O(replicas) scan *is*
        the step kernel, and removing it is what ``kernel="event"`` is
        for."""
        disaggregation = self.disaggregation
        # See run(): ticks start at t=0 and are skipped (not evaluated)
        # until the first dispatch.
        next_control = 0.0 if scaler is not None else math.inf
        dispatched = False
        live: List[EngineReplica] = []
        live_ids: set = set()
        next_arrival_s = arrivals[0].arrival_s if arrivals else math.inf
        faults = self._fault_actions

        def enlist(replica: EngineReplica) -> None:
            if replica.replica_id not in live_ids:
                live_ids.add(replica.replica_id)
                live.append(replica)

        # The loop also stays alive while fault edges remain (a plan is a
        # schedule, not a suggestion — a late crash still fires) and
        # while crash retries wait on an autoscaled fleet to re-provision
        # capacity (control ticks keep firing until the queue drains).
        while arrivals or live or self._migrations or faults \
                or (self._retry_queue and scaler is not None):
            self.iterations += 1
            t_migration = self._migrations[0][0] if self._migrations \
                else math.inf
            stepper = min(live, key=lambda r: (r.next_ready_s,
                                               r.replica_id)) \
                if live else None
            t_step = stepper.next_ready_s if stepper else math.inf
            t_control = next_control if scaler is not None else math.inf
            t_fault = faults[0].time_s if faults else math.inf

            # The tie cascade mirrors EventKind's equal-time priority:
            # arrival <= migration <= control <= step, with FAULT firing
            # only when strictly earliest — same-instant work committed
            # before the fault is never retroactively lost.
            if next_arrival_s <= t_migration and next_arrival_s <= t_step \
                    and next_arrival_s <= t_control \
                    and next_arrival_s <= t_fault:
                request = arrivals.popleft()
                next_arrival_s = arrivals[0].arrival_s if arrivals \
                    else math.inf
                self._activate_due(request.arrival_s)
                pool = self._routable() if disaggregation is None \
                    else self._routable_pool(ReplicaRole.PREFILL)
                enlist(self.router.dispatch(request, pool))
                dispatched = True
                self._sample_metrics(request.arrival_s)
            elif t_migration <= t_step and t_migration <= t_control \
                    and t_migration <= t_fault:
                land_s, _, chunk = heapq.heappop(self._migrations)
                replica = self._land_chunk(land_s, chunk)
                if replica is not None:
                    enlist(replica)
            elif t_control <= t_step and t_control <= t_fault:
                if dispatched:
                    self._control(t_control)
                    self._sample_metrics(t_control)
                    self._flush_retries(t_control, enlist)
                next_control += scaler.config.control_interval_s
            elif t_step <= t_fault:
                state_before = stepper.state
                stepper.step()
                if disaggregation is not None \
                        and stepper.role is ReplicaRole.PREFILL:
                    self._price_migrations(stepper)
                if stepper.state is not state_before:
                    # A draining replica ran dry mid-step and stopped.
                    self._record(stepper.worker.clock)
                if not stepper.has_work:
                    live_ids.remove(stepper.replica_id)
                    live.remove(stepper)
            else:
                action = faults.popleft()
                crashed = self._apply_fault(action.time_s, action, enlist)
                if crashed is not None and crashed in live_ids:
                    live_ids.remove(crashed)
                    live.remove(self.replicas[crashed])

    def _run_event(self, arrivals: "Deque[ServingRequest]",
                   scaler: Optional[Autoscaler]) -> None:
        """The discrete-event kernel (``kernel="event"``): every future
        event sits in one :class:`EventQueue` and the simulation pops
        the global minimum — O(log events) per event, no per-iteration
        fleet scan.

        Exactly one ARRIVAL event is armed at a time (the trace deque
        keeps equal-time arrivals in order), one CONTROL_TICK re-arms
        itself each pop, each busy replica holds one valid STEP event
        (re-armed after its steps, lazily invalidated when it runs dry),
        and TRANSFER_LANDED events are scheduled by
        :meth:`_price_migrations` (one per stream chunk).  A submission
        to an already-busy
        replica never moves its ``next_ready_s`` (the worker is either
        mid-batch — clock-bound — or its earliest pending request is
        unchanged), so only an idle->busy transition arms a step event.
        DRAIN_COMPLETE is resolved synchronously at the step that ran
        the replica dry — its timestamp equals that step's completion,
        and deferring it through the heap could reorder it against
        same-instant fleet samples.

        Run-ahead (see :mod:`.events`): a popped STEP of an ACTIVE
        replica in a unified fleet keeps stepping its worker through
        :meth:`DeviceWorker.run_until` while the replica has work and its
        ``next_ready_s`` is strictly before ``min(next arrival, next
        control tick, next fault)`` — no other event can reach the
        replica sooner — and only then re-arms it.  ``events_processed``
        counts heap pops and ``run_ahead_steps`` the steps taken without
        one; their sum is the step loop's ``iterations``.

        Arrival run-ahead (see :mod:`.events`): after an ARRIVAL, the
        next arrival is dispatched in the same branch while it sorts
        before the heap top (:meth:`EventQueue.deliver_if_next`), so a
        run of back-to-back arrivals costs no push and pop each.  It
        still counts as one delivered event, so ``events_processed``
        and the popped-event log are those of the push-and-pop loop."""
        disaggregation = self.disaggregation
        log_tracer: Optional[Tracer] = None
        if self.record_events:
            # The popped-event log rides the tracer's kernel log (the one
            # event-materialization path); a run without a user tracer
            # gets a private one just for the log.
            log_tracer = self.tracer if self.tracer is not None \
                else Tracer()
            log_tracer.enable_kernel_log()
            self._event_log_tracer = log_tracer
        queue = EventQueue(on_pop=log_tracer.kernel_event
                           if log_tracer is not None else None)
        self._event_queue = queue
        # The dispatch below runs on plain ints and a list of tallies:
        # at a million events per run, EventKind identity checks and
        # per-pop dict-by-name counting are measurable overhead.
        arrival_k = int(EventKind.ARRIVAL)
        transfer_k = int(EventKind.TRANSFER_LANDED)
        control_k = int(EventKind.CONTROL_TICK)
        fault_k = int(EventKind.FAULT)
        counts = [0] * len(EventKind)
        busy: set = set()
        pop = queue.pop
        push = queue.push
        deliver_if_next = queue.deliver_if_next
        arm_step = queue.arm_step
        faults = self._fault_actions
        active = ReplicaState.ACTIVE
        inf = math.inf
        run_ahead = 0
        # The armed CONTROL_TICK's time (one horizon term of run-ahead).
        next_tick_s = inf

        if arrivals:
            push(arrivals[0].arrival_s, arrival_k)
        if scaler is not None:
            # See run(): ticks start at t=0 and are skipped (not
            # evaluated) until the first dispatch.
            next_tick_s = 0.0
            push(0.0, control_k)
        if faults:
            # Exactly one FAULT event armed at a time (the arrival
            # idiom): the expanded action deque stays the source of
            # truth, so equal-time edges keep their plan order.
            push(faults[0].time_s, fault_k)
        dispatched = False

        def enlist(replica: EngineReplica) -> None:
            if replica.replica_id not in busy:
                busy.add(replica.replica_id)
                arm_step(replica)

        # Like the step loop: fault edges keep the run alive until they
        # fire, and waiting crash retries do while an autoscaled fleet
        # re-provisions (the self-re-arming control tick is the event
        # that eventually drains them).
        while arrivals or busy or self._inflight_migrations or faults \
                or (self._retry_queue and scaler is not None):
            event = pop()
            if event is None:
                raise RuntimeError("work remains but the event queue ran dry")
            kind = event[1]
            counts[kind] += 1
            if kind == arrival_k:
                # Arrival run-ahead (see .events): the next arrival is
                # dispatched here, without a push and a pop, for as long
                # as it sorts before everything in the heap.
                while True:
                    request = arrivals.popleft()
                    self._activate_due(request.arrival_s)
                    pool = self._routable() if disaggregation is None \
                        else self._routable_pool(ReplicaRole.PREFILL)
                    enlist(self.router.dispatch(request, pool))
                    dispatched = True
                    self._sample_metrics(request.arrival_s)
                    if not arrivals:
                        break
                    if not deliver_if_next(arrivals[0].arrival_s,
                                           arrival_k):
                        push(arrivals[0].arrival_s, arrival_k)
                        break
                    counts[arrival_k] += 1
            elif kind == transfer_k:
                replica = self._land_chunk(event[0], event[4])
                if replica is not None:
                    enlist(replica)
            elif kind == control_k:
                if dispatched:
                    self._control(event[0])
                    self._sample_metrics(event[0])
                    self._flush_retries(event[0], enlist)
                next_tick_s = event[0] + scaler.config.control_interval_s
                push(next_tick_s, control_k)
            elif kind == fault_k:
                action = faults.popleft()
                # Recovery work (retry dispatch, step re-arm) is causally
                # after the fault but sorts before FAULT's lowest
                # same-instant priority — relax the ordering key first.
                queue.relax_same_time(event[0])
                crashed = self._apply_fault(event[0], action, enlist)
                if crashed is not None:
                    busy.discard(crashed)
                    queue.disarm_step(crashed)
                if faults:
                    push(faults[0].time_s, fault_k)
            else:  # EventKind.STEP
                replica = event[4]
                state_before = replica.state
                replica.step()
                if disaggregation is not None \
                        and replica.role is ReplicaRole.PREFILL:
                    self._price_migrations(replica)
                if replica.state is not state_before:
                    # Synchronous DRAIN_COMPLETE: the draining replica
                    # ran dry mid-step and stopped.
                    counts[EventKind.DRAIN_COMPLETE] += 1
                    self._record(replica.worker.clock)
                elif disaggregation is None and state_before is active:
                    # Run-ahead: nothing can reach this replica before the
                    # next arrival, control tick or fault, so step it on
                    # to that horizon here instead of through the heap.
                    # Strict `<` keeps the equal-time order: arrivals and
                    # ticks fire before a same-instant step, and a step
                    # at a fault's instant goes through the heap ahead of
                    # the FAULT.
                    horizon = arrivals[0].arrival_s if arrivals else inf
                    if next_tick_s < horizon:
                        horizon = next_tick_s
                    if faults and faults[0].time_s < horizon:
                        horizon = faults[0].time_s
                    run_ahead += replica.worker.run_until(horizon)
                if replica.has_work:
                    arm_step(replica)
                else:
                    busy.discard(replica.replica_id)
                    queue.disarm_step(replica.replica_id)

        # The queued kinds each came through one pop; tally them with
        # the synchronous drain-completes for the instrumentation the
        # regression tests pin (events_processed + run_ahead_steps ==
        # step-loop iterations).
        self.events_processed = queue.popped
        self.run_ahead_steps = run_ahead
        self.event_counts = {kind.name: counts[kind] for kind in EventKind}

    def run(self, trace: Sequence[TimedRequest],
            manifest_extra: Optional[dict] = None) -> ClusterReport:
        """Serve a whole trace through the fleet; returns the cluster
        report.  Every ``run()`` builds a fresh fleet so repeated runs
        measure the same system.

        ``manifest_extra`` lands verbatim in the report's run manifest
        (e.g. the CLI records its ``--seed`` there)."""
        self.replicas = []
        self._warming = []
        self._pool_cache = {}
        self._timeline = []
        self._ttft_cursors = {}
        self._ttft_window = []
        self._tpot_cursors = {}
        self._tpot_window = []
        self._migrations = []
        self._inflight_migrations = 0
        self._migration_seq = 0
        self.kv_migrations = 0
        self.kv_bytes_transferred = 0.0
        self.kv_transfer_seconds = 0.0
        self.kv_chunks_landed = 0
        self._event_queue = None
        self._event_log_tracer = None
        self.events_processed = 0
        self.event_counts = {}
        self.run_ahead_steps = 0
        self.iterations = 0
        self._next_sample_s = 0.0
        plan = self.fault_plan
        self._fault_actions = deque(plan.actions()) \
            if plan is not None else deque()
        self._retry_queue = deque()
        self._kv_link_scale = 1.0
        self.fault_crashes = 0
        self.fault_slow_nodes = 0
        self.fault_kv_link_degradations = 0
        self.retry_dispatches = 0
        tracer = self.tracer
        if tracer is not None:
            tracer.reset()
        self.router.policy.reset()
        if self.decode_router is not None:
            self.decode_router.policy.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        if self.decode_autoscaler is not None:
            self.decode_autoscaler.reset()
        disaggregation = self.disaggregation
        if disaggregation is None:
            for _ in range(self.initial_replicas):
                self._spawn(0.0, warmup_s=0.0)
        else:
            for _ in range(disaggregation.prefill_replicas):
                self._spawn(0.0, warmup_s=0.0, role=ReplicaRole.PREFILL)
            for _ in range(disaggregation.decode_replicas):
                self._spawn(0.0, warmup_s=0.0, role=ReplicaRole.DECODE)
        if self.cold_start:
            # A cold deploy: the initial fleet takes traffic from time
            # zero, but no device steps before its packing finished.
            for replica in self.replicas:
                replica.worker.clock += replica.worker.packing_s
        self._record(0.0)

        requests = requests_from_trace(trace)
        # Stateful routing policies may size their bookkeeping from the
        # run's full request list (the open-loop trace is known up front)
        # — prefix_affinity counts group members here so each pin is
        # evicted at its group's last dispatch.
        self.router.policy.observe_trace(requests)
        if self.decode_router is not None:
            self.decode_router.policy.observe_trace(requests)
        arrivals: Deque[ServingRequest] = deque(requests)

        scaler = self.autoscaler
        if self.kernel == "step":
            self._run_step(arrivals, scaler)
        else:
            self._run_event(arrivals, scaler)
        # Conservation backstop: a retry still queued at end of run (no
        # routable capacity ever re-appeared) fails explicitly rather
        # than vanishing from the completed/rejected/failed accounting.
        while self._retry_queue:
            self._retry_queue.popleft().state = RequestState.FAILED

        # Last real fleet activity.  A spawned-but-never-stepped replica's
        # clock sits at its (possibly future) ready_s — counting it would
        # charge phantom replica-seconds to the whole fleet, so only
        # replicas that executed work or stopped contribute their clocks.
        end_s = 0.0
        for replica in self.replicas:
            end_s = max(end_s, replica.spawned_s)
            if replica.worker.steps > 0:
                end_s = max(end_s, replica.worker.clock)
            if replica.stopped_s is not None:
                end_s = max(end_s, replica.stopped_s)
        if tracer is not None:
            # Replica-lane lifecycle spans and fleet counter totals,
            # stamped once at end of run (deterministic order: replica
            # id, then sorted counter names inside the registry).
            for replica in self.replicas:
                if replica.drain_s is not None:
                    tracer.span(SpanKind.DRAIN, replica.drain_s,
                                replica.stopped_s
                                if replica.stopped_s is not None else end_s,
                                lane=replica.replica_id)
            metrics = tracer.metrics
            metrics.count("kv_migrations", float(self.kv_migrations))
            metrics.count("kv_bytes_transferred", self.kv_bytes_transferred)
            metrics.count("kv_stall_seconds", math.fsum(
                replica.worker.kv_stall_s for replica in self.replicas))
            metrics.count("preemptions", float(sum(
                len(replica.worker.preemption_events)
                for replica in self.replicas)))
        # The manifest deliberately omits self.kernel: both kernels must
        # produce byte-identical reports (the differential matrix's core
        # invariant), so the kernel is an implementation detail, not an
        # experiment parameter.
        configs = {
            "router": self.router.policy,
            "initial_replicas": self.initial_replicas,
            "scheduler": self.scheduler_config,
            "kv_cache": self.kv_config,
            "autoscaler": scaler.config if scaler is not None else None,
            "disaggregation": disaggregation,
            "preemption": self.preemption,
        }
        if plan is not None and plan:
            # Only a non-empty plan earns a manifest key: an empty plan
            # (or none) must leave the manifest byte-identical.
            configs["faults"] = plan.to_dict()
        if self.cold_start:
            # Same convention: a warm start leaves the manifest unchanged.
            configs["cold_start"] = True
        manifest = build_manifest(
            component="cluster", model=self.config.name, requests=requests,
            configs=configs,
            extra=manifest_extra)
        return build_cluster_report(
            self.config.name, self.router.policy.name,
            autoscaled=scaler is not None,
            requests=requests,
            replicas=self.replicas,
            timeline=sorted(self._timeline, key=lambda s: s.time_s),
            end_s=end_s,
            slo_ttft_s=scaler.config.slo_ttft_s
            if scaler is not None else None,
            disaggregated=disaggregation is not None,
            kv_migrations=self.kv_migrations,
            kv_bytes_transferred=self.kv_bytes_transferred,
            kv_transfer_seconds=self.kv_transfer_seconds,
            kv_stream_chunks=disaggregation.kv_stream_chunks
            if disaggregation is not None else 1,
            kv_chunks_landed=self.kv_chunks_landed,
            kv_stall_seconds=math.fsum(
                replica.worker.kv_stall_s for replica in self.replicas),
            kv_stall_steps=sum(replica.worker.kv_stall_steps
                               for replica in self.replicas),
            manifest=manifest,
            telemetry=telemetry_section(tracer)
            if tracer is not None else None,
            fault_plan=plan,
            fault_crashes=self.fault_crashes,
            fault_slow_nodes=self.fault_slow_nodes,
            fault_kv_link_degradations=self.fault_kv_link_degradations)
