"""The discrete-event core of the cluster simulation.

The step loop the cluster shipped with rescans every live replica per
iteration to find the earliest next step — O(replicas) per event, which is
what bounded fleet sweeps at ~100-request traces.  This module is the
replacement: one :class:`EventQueue` (a ``heapq``) holds every *typed*
future event and the simulation advances by popping the global minimum,
so each event costs O(log events) regardless of fleet size.

**Event taxonomy** (:class:`EventKind`):

``ARRIVAL``
    The next trace request reaches the front door.  Exactly one arrival
    event is armed at a time — the trace deque stays the source of truth,
    so equal-time arrivals keep their trace order.
``TRANSFER_LANDED``
    A KV hand-off finishes crossing the interconnect (disaggregated
    fleets); the payload is the :class:`~repro.serving.engine.HandoffEvent`.
``CONTROL_TICK``
    An autoscaler evaluation point.  One tick is armed at a time; each
    pop re-arms the next at ``control_interval_s`` later.
``STEP``
    A replica's next engine iteration can start (its ``next_ready_s``).
    At most one *valid* step event per busy replica, refreshed after
    every state change (see lazy invalidation below).  A popped step may
    carry the replica through several engine iterations (see run-ahead
    below), so STEP pops count heap traffic, not engine steps.
``DRAIN_COMPLETE``
    A draining replica ran dry and stopped.  Never queued: it is resolved
    synchronously at the step (or drain call) that emptied the replica,
    because its timestamp equals that step's completion and deferring it
    through the heap could reorder it against same-time fleet samples.
``FAULT``
    An injected fault fires (:mod:`~repro.serving.cluster.faults`): a
    replica crash, a slow-node onset/recovery, or a KV-link degradation
    edge.  Lowest equal-time priority — a fault at time ``t`` lands
    after every arrival, landing, tick and step scheduled at ``t``, so
    same-instant work committed before the fault is never retroactively
    lost.  Exactly one fault event is armed at a time (the plan's action
    list stays the source of truth, like the trace deque for arrivals).

**Deterministic tie-breaking.**  Heap entries are keyed
``(time, kind, tie, seq)``.  ``kind`` encodes the legacy loop's
equal-time priority — arrival, then migration landing, then control
tick, then engine step — as :class:`EventKind`'s integer values, so the
event kernel replays the step loop's decisions exactly.  ``tie`` carries
the kind-specific order: the migration sequence number for transfers
(FIFO per landing instant) and the replica id for steps (equal-time
steps break on the lowest replica id, exactly the old
``min(live, key=(next_ready_s, device_id))``).  ``seq`` is a global
push counter that makes every key unique, so heap order never falls
through to comparing payloads.

**Lazy invalidation.**  A replica's ``next_ready_s`` moves whenever it
is stepped or receives a submission, and a stopped replica stops
stepping altogether.  Rather than deleting the superseded heap entry
(heaps cannot remove in O(log n)), :meth:`EventQueue.arm_step` bumps a
per-replica version and tags the new entry with it; :meth:`EventQueue.pop`
silently discards any step event whose version is no longer current.
Stale entries therefore cost one pop each and nothing else.

**Run-ahead.**  Replicas interact only at cross-replica events:
arrivals, control ticks, faults and KV landings.  So after a popped
STEP steps an ACTIVE replica of a unified fleet, the kernel keeps
stepping that replica while its ``next_ready_s`` is strictly before its
*horizon*, then re-arms (or disarms) it once.  The horizon is
per replica: ``min(next control tick, next fault, first upcoming arrival
whose dispatch reads the fleet or reaches this replica)``.  An arrival
the router sends to another replica without reading any replica's state
(``RoutingPolicy.routed_elsewhere``: for ``prefix_affinity``, a live
pin on a routable replica) changes nothing this replica or its router
decision depends on, so the replica runs past it; the look-ahead is
capped, and stopping it early only ends the run-ahead sooner.  A traced
run keeps the fleet horizon ``min(next arrival, next control tick, next
fault)``, because every arrival samples the whole fleet's gauges.
``DeviceWorker.run_until(horizon)`` does the stepping; a replica
holding a steady decode batch runs a whole segment of those steps per
``DeviceWorker.advance(horizon)`` call, the popped step included.  The
strict ``<`` keeps the equal-time order: an arrival or tick
at the horizon still fires before a same-instant step, and a step
starting exactly at a fault's instant goes through the heap, where it
sorts ahead of the FAULT (so a crash keeps its committed-horizon
semantics).  Router, autoscaler, metric
sampling and faults read replica state only at those events, so they
see exactly the steps the step loop shows them.  Draining replicas
(whose stop is a fleet-timeline sample) and disaggregated fleets (where
a prefill step can schedule a KV landing before the horizon) step only
through the heap.  ``popped`` counts heap pops; the cluster counts the
steps run ahead separately (``ServingCluster.run_ahead_steps``), and
the two sum to the step loop's iterations.

**Arrival run-ahead.**  Arrivals are ~96% of the events of a
per-request workload, and back-to-back arrivals often have no other
event between them.  After handling an ARRIVAL, the kernel offers the
next one to :meth:`EventQueue.deliver_if_next`: if it sorts before the
heap top (ARRIVAL is kind 0, so it wins every equal-time tie) it is
dispatched at once, without a push and a pop, with the queue's
``seq``, ``popped``, ordering check and ``on_pop`` log advanced exactly
as the pair would.  Otherwise it is pushed as before.  The popped-event
log, ``event_counts`` and ``events_processed`` are unchanged by it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Dict, List, Optional, Tuple


class EventKind(IntEnum):
    """Typed simulation events; the integer value *is* the equal-time
    priority (lower fires first), mirroring the legacy step loop's
    ``arrival <= migration <= control <= step`` tie cascade."""

    ARRIVAL = 0
    TRANSFER_LANDED = 1
    CONTROL_TICK = 2
    STEP = 3
    DRAIN_COMPLETE = 4   # synchronous; see the module docstring
    FAULT = 5            # injected fault edge; see the module docstring


_STEP = int(EventKind.STEP)


@dataclass(frozen=True)
class Event:
    """One popped simulation event in typed form.

    :meth:`EventQueue.pop` itself returns the raw heap tuple (see its
    docstring); typed events are materialized lazily from the tracer's
    kernel log (:meth:`repro.serving.telemetry.Tracer.kernel_events`),
    which the cluster's ``record_events`` view reads."""

    time_s: float
    kind: EventKind
    tie: int          # kind-specific order key (replica id / migration seq)
    seq: int          # global push order, makes every heap key unique
    payload: Any = None

    @property
    def key(self) -> Tuple[float, int, int]:
        """The deterministic ordering key (without the uniqueness seq)."""
        return (self.time_s, int(self.kind), self.tie)


class EventQueue:
    """A deterministic min-heap of typed events with lazy step
    invalidation.

    Args:
        on_pop: Optional sink called with every *valid* popped entry (the
            raw ``(time, kind, tie, seq, payload)`` tuple, post step-
            unwrap); stale-dropped entries never reach it.  This is the
            one event-materialization hook — the cluster wires it to the
            tracer's kernel log when ``record_events`` is on, and ``None``
            (the default) costs nothing: a million-request run should not
            retain a million Event objects.
    """

    def __init__(self, on_pop=None) -> None:
        self._heap: List[Tuple[float, int, int, int, Any]] = []
        self._seq = 0
        # device_id -> version of its only *valid* step event; entries
        # tagged with older versions are stale and dropped on pop.
        self._step_version: Dict[int, int] = {}
        self._last_key: Optional[Tuple[float, ...]] = None
        self.popped = 0          # valid events delivered
        self.stale_dropped = 0   # lazily invalidated entries skipped
        self.on_pop = on_pop

    def __len__(self) -> int:
        """Entries still in the heap (valid and stale alike)."""
        return len(self._heap)

    def push(self, time_s: float, kind: EventKind, tie: int = 0,
             payload: Any = None) -> None:
        """Schedule one event.  ``tie`` orders equal-time events of the
        same kind (0 for the singleton arrival/control events)."""
        self._seq += 1
        heapq.heappush(self._heap,
                       (time_s, int(kind), tie, self._seq, payload))

    def deliver_if_next(self, time_s: float, kind: int) -> bool:
        """Deliver one singleton event (``tie`` 0, no payload) without
        the heap when it would pop next — the arrival run-ahead of the
        cluster kernel.

        When the new key sorts before the heap top, a :meth:`push`
        followed by a :meth:`pop` would hand this very event back (the
        top is the least entry, valid or stale, and a stale entry is
        only dropped when it reaches the top).  So ``_seq``, ``popped``,
        the ordering check and ``on_pop`` advance here exactly as that
        pair would, and the heap is left untouched.  Returns False and
        changes nothing when the heap holds an entry that pops first
        (an equal key included: its ``seq`` is older); the caller then
        pushes the event.  Not for STEP events, whose entries carry a
        version."""
        heap = self._heap
        if heap:
            top = heap[0]
            if time_s > top[0] or (time_s == top[0]
                                   and (kind, 0) >= (top[1], top[2])):
                return False
        self._seq += 1
        key = (time_s, kind, 0)
        if self._last_key is not None and key < self._last_key:
            raise RuntimeError("event queue delivered out of order")
        self._last_key = key
        self.popped += 1
        if self.on_pop is not None:
            self.on_pop((time_s, kind, 0, self._seq, None))
        return True

    def arm_step(self, replica) -> None:
        """(Re)schedule ``replica``'s next engine step at its current
        ``next_ready_s``, superseding any step event armed earlier — the
        old entry becomes stale rather than being removed."""
        version = self._step_version.get(replica.device_id, 0) + 1
        self._step_version[replica.device_id] = version
        self.push(replica.next_ready_s, EventKind.STEP,
                  tie=replica.device_id, payload=(replica, version))

    def disarm_step(self, device_id: int) -> None:
        """Invalidate a replica's armed step event without re-arming
        (the replica ran dry or stopped)."""
        if device_id in self._step_version:
            self._step_version[device_id] += 1

    def relax_same_time(self, time_s: float) -> None:
        """Allow same-instant events of *any* kind to follow the entry
        just popped, keeping only time-monotonicity checked.

        A ``FAULT`` event sorts after every same-instant event (see
        :class:`EventKind`), but its recovery work — retry dispatches
        arming fresh step events — is causally *after* the fault while
        sorting before it in the ``(time, kind)`` key.  The kernel calls
        this after handling a fault so that legitimate same-instant
        recovery does not trip the ordering check."""
        self._last_key = (time_s,)

    def pop(self) -> Optional[Tuple[float, int, int, int, Any]]:
        """The earliest valid event as its raw ``(time, kind, tie, seq,
        payload)`` tuple, or ``None`` on an exhausted heap.  Stale step
        events (superseded versions) are discarded in passing; delivery
        order is checked nondecreasing in ``(time, kind, tie)`` — the
        kernel's core invariant.

        The raw-tuple return is deliberate: this is the hottest call of
        a million-event run, and wrapping every pop in a frozen
        :class:`Event` (plus an ``EventKind`` construction) measurably
        slows the kernel.  ``on_pop`` receives the same raw tuple;
        typed :class:`Event` records are materialized lazily by whoever
        retained the entries (the tracer's kernel log)."""
        heap = self._heap
        step = _STEP
        while heap:
            entry = heapq.heappop(heap)
            payload = entry[4]
            if entry[1] == step:
                replica, version = payload
                if self._step_version.get(replica.device_id) != version:
                    self.stale_dropped += 1
                    continue
                payload = replica
                entry = (entry[0], step, entry[2], entry[3], payload)
            key = entry[:3]
            if self._last_key is not None and key < self._last_key:
                raise RuntimeError("event queue delivered out of order")
            self._last_key = key
            self.popped += 1
            if self.on_pop is not None:
                self.on_pop(entry)
            return entry
        return None
