"""One fleet member: a lifecycle wrapper around a single-device engine.

An :class:`EngineReplica` owns one :class:`~repro.serving.ServingEngine`
(``num_devices=1``) together with its private KV block pool and drives the
engine's step-granular :class:`~repro.serving.engine.DeviceWorker` directly,
so the cluster can interleave replica steps under a global clock instead of
running each engine to completion.

On top of the worker it adds the lifecycle a fleet manager needs:

``WARMING``
    Spawned but not yet serving.  Scale-up is not free — a new replica pays
    a warm-up cost before it can take traffic (by default the engine's own
    one-time parameter-packing time, the natural deploy cost of the
    simulated accelerator; an :class:`AutoscalerConfig` may override it).
``ACTIVE``
    Routable: the router may dispatch arrivals to it.
``DRAINING``
    Graceful shutdown: no new submissions are accepted, but everything
    already submitted — queued and in-flight — runs to completion.
``STOPPED``
    Drained dry; the KV pool is released.  The replica keeps its counters
    so the final per-replica report is still complete.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Union

from repro.eval.latency import FpgaPerformanceModel
from repro.models.config import ModelConfig
from repro.serving.engine import DeviceWorker, ServingEngine
from repro.serving.kv_manager import KVCacheConfig
from repro.serving.metrics import ServingReport, build_report
from repro.serving.policies.preemption import PreemptionPolicy
from repro.serving.request import ServingRequest
from repro.serving.scheduler import SchedulerConfig


class ReplicaState(Enum):
    """Lifecycle stage of one fleet member (see the module docstring)."""

    WARMING = "warming"    # spawned, paying the warm-up cost
    ACTIVE = "active"      # routable
    DRAINING = "draining"  # finishing submitted work, accepts nothing new
    STOPPED = "stopped"    # drained dry, KV pool released


class ReplicaRole(Enum):
    """What traffic a replica serves in a (possibly disaggregated) fleet.

    ``UNIFIED`` replicas — the PR 4 default — run every request end to
    end.  Under prefill/decode disaggregation a ``PREFILL`` replica serves
    requests only through their prefill phase (handing each one off, KV
    and first token included, the moment prefill completes) and a
    ``DECODE`` replica serves only migrated requests' decode phases.
    """

    UNIFIED = "unified"
    PREFILL = "prefill"
    DECODE = "decode"


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


class EngineReplica:
    """One serving engine instance inside a cluster.

    Args:
        replica_id: Fleet-unique id; doubles as the device id in the
            replica's report, so per-replica stats stay distinguishable
            after aggregation.
        config: The model this replica serves.
        scheduler_config: Per-replica iteration-level scheduling knobs.
        performance_model: Analytical accelerator model.
        kv_config: Optional KV block pool for this replica.
        preemption: Preemption policy (name or instance) under KV pressure.
        spawned_s: Simulated time the replica was brought up.
        warmup_s: Seconds between spawn and serving readiness.  ``None``
            charges the engine's one-time parameter-packing time — the
            model-grounded deploy cost; ``0.0`` makes the replica ready
            immediately (the initial fleet).
        role: The replica's traffic role (:class:`ReplicaRole`, or its
            name).  ``unified`` — the default — is the PR 4 replica
            exactly; ``prefill``/``decode`` are the two halves of a
            disaggregated fleet.
        kv_stream_chunks: Layer-granular chunks each hand-off's KV export
            is split into (meaningful on prefill-role replicas; 1 =
            monolithic transfers).
        tracer: Optional request-lifecycle tracer threaded through to the
            worker; the replica id is the span lane.
    """

    def __init__(self, replica_id: int, config: ModelConfig,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 performance_model: Optional[FpgaPerformanceModel] = None,
                 kv_config: Optional[KVCacheConfig] = None,
                 preemption: Union[str, PreemptionPolicy] = "youngest",
                 spawned_s: float = 0.0,
                 warmup_s: Optional[float] = 0.0,
                 role: Union[str, ReplicaRole] = ReplicaRole.UNIFIED,
                 kv_stream_chunks: int = 1,
                 tracer=None) -> None:
        self.replica_id = replica_id
        self.role = resolve_replica_role(role)
        # The replica owns a real single-device ServingEngine rather than
        # assembling session/scheduler/policies by hand: the engine's
        # constructor is the one place the configuration is validated
        # (fail-fast KV pool sizing, policy resolution), and the loop the
        # replica drives below is the engine's own DeviceWorker — the same
        # code path every engine test exercises.
        self.engine = ServingEngine(config, num_devices=1,
                                    scheduler_config=scheduler_config,
                                    performance_model=performance_model,
                                    kv_config=kv_config,
                                    preemption=preemption)
        self.worker = DeviceWorker(replica_id, self.engine.sessions[0],
                                   self.engine.scheduler_config,
                                   preemption=self.engine.preemption,
                                   kv_config=kv_config,
                                   prefill_only=self.role
                                   is ReplicaRole.PREFILL,
                                   kv_stream_chunks=kv_stream_chunks,
                                   tracer=tracer)
        self.spawned_s = spawned_s
        self.warmup_s = self.worker.packing_s if warmup_s is None \
            else warmup_s
        if self.warmup_s < 0:
            raise ValueError("warmup_s must be non-negative")
        self.ready_s = spawned_s + self.warmup_s
        # The worker's clock starts at readiness: a freshly scaled-up
        # replica cannot execute a step before its warm-up elapsed.
        self.worker.clock = self.ready_s
        self.state = ReplicaState.WARMING if self.warmup_s > 0 \
            else ReplicaState.ACTIVE
        self.stopped_s: Optional[float] = None
        # When graceful shutdown began (None if never drained) — the
        # tracer's DRAIN span runs [drain_s, stopped_s] on this lane.
        self.drain_s: Optional[float] = None
        # Whether an injected fault killed this replica (its STOPPED
        # transition was a crash, not a drained-dry stop).
        self.crashed = False
        self.requests: List[ServingRequest] = []
        # Inbound KV still streaming toward this replica, request_id ->
        # bytes remaining.  Insertion follows global landing order and
        # entries are deleted on their final chunk, so the summed signal
        # is deterministic across kernels and exactly empty once every
        # stream has drained.
        self._inbound_kv: "dict[int, float]" = {}

    # ------------------------------------------------------------------
    # Load signals (what the router and autoscaler read)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests submitted but not yet admitted into the batch."""
        return self.worker.queue_depth

    @property
    def num_running(self) -> int:
        """Requests resident in this replica's continuous batch."""
        return self.worker.num_running

    @property
    def in_system(self) -> int:
        """Outstanding requests: queued plus resident in the batch."""
        return self.worker.queue_depth + self.worker.num_running

    @property
    def value_load(self) -> float:
        """Summed SLO-class value of the outstanding requests — the load
        signal ``score`` routing balances (equal to ``in_system`` times
        the default class value on unclassed traffic)."""
        return self.worker.value_in_system

    @property
    def kv_utilization(self) -> float:
        """Current block-pool occupancy (0.0 without a KV manager)."""
        return self.worker.kv_utilization

    @property
    def inbound_kv_bytes(self) -> float:
        """Bytes of migrated KV still streaming toward this replica —
        the in-flight-bytes-remaining signal ``kv_transfer_aware``
        routing ranks decode replicas by (0.0 with monolithic
        hand-offs: a dispatched request's KV has fully landed)."""
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
        replica's pool by right now (0 = the import fits in free plus
        reclaimable blocks, and always 0 without a KV manager) — the
        fit signal ``kv_transfer_aware`` routing ranks decode replicas
        by."""
        manager = self.worker.manager
        if manager is None or tokens <= 0:
            return 0
        needed = manager.blocks_for(tokens)
        available = manager.free_blocks + manager.reclaimable_blocks
        return max(0, needed - available)

    @property
    def has_work(self) -> bool:
        """Whether the replica still holds queued or in-flight requests."""
        return self.worker.has_work

    @property
    def next_ready_s(self) -> float:
        """Earliest simulated time this replica's next step can start.

        This is the time the event kernel registers into its heap (one
        valid STEP event per busy replica) and compares against its
        run-ahead horizon.  Its scheduling contract:
        the value only moves when the replica *steps* or when a
        submission lands on an *idle* replica — submitting to a replica
        that already has work never changes it (the worker is either
        mid-batch, so its clock governs, or its earliest pending request
        is unchanged by an append).  That is what lets the kernel re-arm
        on exactly those two transitions instead of polling."""
        return self.worker.next_ready_s

    @property
    def routable(self) -> bool:
        """Whether the router may dispatch new arrivals here (ACTIVE)."""
        return self.state is ReplicaState.ACTIVE

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
        """Hand one routed request to this replica's worker queue."""
        if not self.routable:
            raise RuntimeError(
                f"replica {self.replica_id} is {self.state.value} and "
                "cannot take new requests")
        self.requests.append(request)
        self.worker.submit(request)

    def step(self) -> bool:
        """Advance one engine iteration; a draining replica that ran dry
        transitions to STOPPED and releases its KV pool."""
        progressed = self.worker.step()
        if self.state is ReplicaState.DRAINING and not self.worker.has_work:
            self._stop(self.worker.clock)
        return progressed

    def take_handoffs(self):
        """Drain the completed-prefill hand-offs the last step produced
        (see :meth:`DeviceWorker.take_handoffs`; empty unless this is a
        prefill-role replica)."""
        return self.worker.take_handoffs()

    def drain(self, now: float) -> None:
        """Begin graceful shutdown: accept nothing new, finish everything
        already submitted, then release the KV pool.  An idle replica
        stops immediately."""
        if self.state in (ReplicaState.DRAINING, ReplicaState.STOPPED):
            return
        self.state = ReplicaState.DRAINING
        self.drain_s = now
        self.worker.drain()
        if not self.worker.has_work:
            self._stop(max(now, self.worker.clock))

    def _stop(self, now: float) -> None:
        self.state = ReplicaState.STOPPED
        self.stopped_s = now
        self.worker.release_kv()

    def crash(self, now: float) -> List[ServingRequest]:
        """Kill this replica immediately (fault injection): every
        in-flight request is lost and returned for re-dispatch, the KV
        pool is released, and the replica transitions straight to
        STOPPED.  Crashing an already-STOPPED replica is a no-op (the
        fault plan may target a replica a drain beat it to)."""
        if self.state is ReplicaState.STOPPED:
            return []
        lost = self.worker.crash()
        self.state = ReplicaState.STOPPED
        self.stopped_s = now
        self.crashed = True
        return lost

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, model_name: str) -> ServingReport:
        """This replica's run folded into a standard serving report."""
        kv_config = self.engine.kv_config
        return build_report(
            model_name, 1, self.requests, [self.worker.device_stats()],
            self.worker.preemption_events,
            prefix_cache_enabled=kv_config is not None
            and kv_config.enable_prefix_cache)
