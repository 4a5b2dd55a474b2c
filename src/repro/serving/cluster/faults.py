"""Deterministic fault injection for the cluster simulation.

A :class:`FaultPlan` is a typed, seeded schedule of fault events the
cluster injects through **both** simulation kernels as first-class
``FAULT`` events (:class:`~repro.serving.cluster.events.EventKind`):

``ReplicaCrash``
    Immediate death of one replica at ``time_s``: every in-flight
    request (queued or mid-batch) is lost, its KV pool is released, and
    the replica transitions straight to STOPPED.  The cluster re-
    dispatches each lost request from scratch — recompute-from-prefill,
    which in a disaggregated fleet means re-entering at the *prefill*
    pool so the KV is recomputed and re-migrated — with a bounded retry
    count (``FaultPlan.max_retries``); a request losing its last retry
    is marked FAILED.  An autoscaled fleet additionally treats the dead
    replica as replaceable: ``provisioned < min_replicas`` triggers an
    immediate spawn-with-warmup at the next control tick, cooldown
    bypassed.
``SlowNode``
    Transient degradation of one replica: its step times are multiplied
    by ``scale`` for ``duration_s`` seconds (an overheating accelerator,
    a noisy neighbour).  The multiplier applies to steps *started* in
    the window; a step already executing when the window opens keeps its
    nominal cost (steps are atomic).
``KVLinkDegradation``
    Transient degradation of the disaggregation interconnect: hand-offs
    *priced* inside the window cross the link at ``scale`` times the
    nominal bandwidth (``scale < 1`` slows the link).  Transfers already
    in flight keep their landing times — the degradation hits new
    traffic, not packets already on the wire.  A no-op on unified
    fleets, which never touch the link.

**Determinism.**  A plan is data, not behaviour: the same plan on the
same trace produces byte-identical reports under both kernels (the
differential suite asserts it), and an *empty* plan — or no plan at all
— leaves every report byte-identical to an unfaulted build.  Fault
events fire at the lowest equal-time priority (``FAULT`` orders after
every same-instant arrival, landing, tick and step), so work committed
at the fault instant is never retroactively lost.

:func:`parse_fault_spec` parses the CLI's compact ``--faults`` grammar;
:meth:`FaultPlan.random` draws a seeded random plan — the property-test
sweep's generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

__all__ = [
    "FaultAction",
    "FaultPlan",
    "KVLinkDegradation",
    "ReplicaCrash",
    "SlowNode",
    "parse_fault_spec",
]


@dataclass(frozen=True)
class ReplicaCrash:
    """Immediate death of ``replica_id`` at ``time_s`` (see module
    docstring).  Targeting an already-STOPPED (or never-spawned) replica
    is a harmless no-op — a random plan may outlive its target."""

    time_s: float
    replica_id: int

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("fault time_s must be non-negative")
        if self.replica_id < 0:
            raise ValueError("replica_id must be non-negative")


@dataclass(frozen=True)
class SlowNode:
    """Step-time multiplier ``scale`` on ``replica_id`` for
    ``duration_s`` seconds starting at ``time_s``."""

    time_s: float
    replica_id: int
    scale: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("fault time_s must be non-negative")
        if self.replica_id < 0:
            raise ValueError("replica_id must be non-negative")
        if self.scale <= 0:
            raise ValueError("slow-node scale must be positive")
        if self.duration_s <= 0:
            raise ValueError("fault duration_s must be positive")


@dataclass(frozen=True)
class KVLinkDegradation:
    """Interconnect bandwidth multiplier ``scale`` for ``duration_s``
    seconds starting at ``time_s`` (``scale < 1`` slows the link)."""

    time_s: float
    scale: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("fault time_s must be non-negative")
        if self.scale <= 0:
            raise ValueError("kv-link scale must be positive")
        if self.duration_s <= 0:
            raise ValueError("fault duration_s must be positive")


FaultEvent = Union[ReplicaCrash, SlowNode, KVLinkDegradation]


@dataclass(frozen=True)
class FaultAction:
    """One edge of the expanded plan: what the kernel applies when its
    ``FAULT`` event pops.  ``kind`` is one of ``crash``, ``slow_on``,
    ``slow_off``, ``kvlink_on``, ``kvlink_off``; a transient fault
    expands into its onset and restore edges."""

    time_s: float
    kind: str
    replica_id: int = -1       # -1 for fleet-wide (kv-link) actions
    scale: float = 1.0


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events plus recovery policy.

    Attributes:
        events: The typed fault events, in any order (expansion sorts).
        max_retries: Crash-recovery budget per request — how many times
            one request may be lost to a crash and re-dispatched before
            it is marked FAILED.
        seed: Provenance only (recorded in the run manifest when the
            plan came from :meth:`random`); never drawn from at
            simulation time — the plan is fully expanded data.
    """

    events: Tuple[FaultEvent, ...] = ()
    max_retries: int = 3
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event,
                              (ReplicaCrash, SlowNode, KVLinkDegradation)):
                raise ValueError(
                    f"unknown fault event type {type(event).__name__}")

    def __bool__(self) -> bool:
        """True when the plan schedules anything — the gating predicate:
        an empty plan is behaviourally identical to no plan at all."""
        return bool(self.events)

    def actions(self) -> List[FaultAction]:
        """The plan expanded into its flat, time-sorted edge list.

        Transient events contribute an onset and a restore edge; ties
        break on the event's position in ``events`` then onset-before-
        restore, so expansion is deterministic for any input order."""
        edges: List[Tuple[float, int, int, FaultAction]] = []
        for index, event in enumerate(self.events):
            if isinstance(event, ReplicaCrash):
                edges.append((event.time_s, index, 0, FaultAction(
                    event.time_s, "crash", replica_id=event.replica_id)))
            elif isinstance(event, SlowNode):
                edges.append((event.time_s, index, 0, FaultAction(
                    event.time_s, "slow_on", replica_id=event.replica_id,
                    scale=event.scale)))
                restore = event.time_s + event.duration_s
                edges.append((restore, index, 1, FaultAction(
                    restore, "slow_off", replica_id=event.replica_id)))
            else:
                edges.append((event.time_s, index, 0, FaultAction(
                    event.time_s, "kvlink_on", scale=event.scale)))
                restore = event.time_s + event.duration_s
                edges.append((restore, index, 1, FaultAction(
                    restore, "kvlink_off")))
        edges.sort(key=lambda edge: edge[:3])
        return [edge[3] for edge in edges]

    # ------------------------------------------------------------------
    # Provenance / reporting helpers
    # ------------------------------------------------------------------
    @property
    def num_crashes(self) -> int:
        return sum(isinstance(e, ReplicaCrash) for e in self.events)

    @property
    def num_slow_nodes(self) -> int:
        return sum(isinstance(e, SlowNode) for e in self.events)

    @property
    def num_kv_link_degradations(self) -> int:
        return sum(isinstance(e, KVLinkDegradation) for e in self.events)

    def to_dict(self) -> dict:
        """JSON-clean manifest form (stable field order)."""
        events = []
        for event in self.events:
            if isinstance(event, ReplicaCrash):
                events.append({"kind": "crash", "time_s": event.time_s,
                               "replica_id": event.replica_id})
            elif isinstance(event, SlowNode):
                events.append({"kind": "slow", "time_s": event.time_s,
                               "replica_id": event.replica_id,
                               "scale": event.scale,
                               "duration_s": event.duration_s})
            else:
                events.append({"kind": "kvlink", "time_s": event.time_s,
                               "scale": event.scale,
                               "duration_s": event.duration_s})
        return {"events": events, "max_retries": self.max_retries,
                "seed": self.seed}

    @classmethod
    def random(cls, seed: int, num_replicas: int = 4,
               horizon_s: float = 10.0,
               max_crashes: int = 2,
               max_slow_nodes: int = 2,
               max_kv_link_degradations: int = 1,
               max_retries: int = 3) -> "FaultPlan":
        """A seeded random plan over a fleet-size hint — the property
        sweep's generator.  Out-of-range targets are harmless no-ops, so
        the hint only shapes, never constrains, correctness."""
        if num_replicas < 1:
            raise ValueError("num_replicas must be at least 1")
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        for _ in range(rng.randint(0, max_crashes)):
            events.append(ReplicaCrash(
                time_s=rng.uniform(0.0, horizon_s),
                replica_id=rng.randrange(num_replicas)))
        for _ in range(rng.randint(0, max_slow_nodes)):
            events.append(SlowNode(
                time_s=rng.uniform(0.0, horizon_s),
                replica_id=rng.randrange(num_replicas),
                scale=rng.uniform(1.5, 4.0),
                duration_s=rng.uniform(0.5, horizon_s / 2)))
        for _ in range(rng.randint(0, max_kv_link_degradations)):
            events.append(KVLinkDegradation(
                time_s=rng.uniform(0.0, horizon_s),
                scale=rng.uniform(0.1, 0.9),
                duration_s=rng.uniform(0.5, horizon_s / 2)))
        return cls(events=tuple(events), max_retries=max_retries,
                   seed=seed)


def parse_fault_spec(spec: str, max_retries: int = 3,
                     fleet_size: Optional[int] = None) -> FaultPlan:
    """Parse the CLI's compact fault grammar into a :class:`FaultPlan`.

    Comma-separated entries, one per fault event:

    * ``crash@T:R`` — replica ``R`` crashes at time ``T``;
    * ``slow@T:RxS+D`` — replica ``R`` runs ``S``x slower for ``D``
      seconds starting at ``T``;
    * ``kvlink@TxS+D`` — the interconnect runs at ``S``x nominal
      bandwidth for ``D`` seconds starting at ``T``.

    Example: ``crash@1.5:1,slow@0.5:0x2.5+2,kvlink@1x0.25+1.5``.

    ``fleet_size`` is the most replicas the fleet can hold; an entry aimed
    at a replica id at or beyond it is rejected.  A :meth:`FaultPlan.random`
    plan may name absent replicas (they are no-ops), but a hand-written
    one that does is a mistake the user should hear about.
    """
    events: List[FaultEvent] = []
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            continue
        try:
            kind, _, body = entry.partition("@")
            if not body:
                raise ValueError("missing '@'")
            if kind == "crash":
                time_text, _, replica_text = body.partition(":")
                if not replica_text:
                    raise ValueError("crash needs '@T:R'")
                events.append(ReplicaCrash(float(time_text),
                                           int(replica_text)))
            elif kind == "slow":
                time_text, _, rest = body.partition(":")
                if not rest:
                    raise ValueError("slow needs '@T:RxS+D'")
                replica_text, _, rest = rest.partition("x")
                scale_text, _, duration_text = rest.partition("+")
                if not duration_text:
                    raise ValueError("slow needs '@T:RxS+D'")
                events.append(SlowNode(float(time_text), int(replica_text),
                                       float(scale_text),
                                       float(duration_text)))
            elif kind == "kvlink":
                time_text, _, rest = body.partition("x")
                scale_text, _, duration_text = rest.partition("+")
                if not duration_text:
                    raise ValueError("kvlink needs '@TxS+D'")
                events.append(KVLinkDegradation(float(time_text),
                                                float(scale_text),
                                                float(duration_text)))
            else:
                raise ValueError(
                    "unknown fault kind "
                    f"{kind!r}; choose crash, slow or kvlink")
            target = getattr(events[-1], "replica_id", None)
            if fleet_size is not None and target is not None \
                    and target >= fleet_size:
                raise ValueError(
                    f"replica {target} is outside a fleet of at most "
                    f"{fleet_size} replica(s) (ids 0-{fleet_size - 1})")
        except ValueError as error:
            raise ValueError(
                f"bad fault spec entry {entry!r}: {error}") from None
    if not events:
        raise ValueError(f"fault spec {spec!r} contains no fault events")
    return FaultPlan(events=tuple(events), max_retries=max_retries)
