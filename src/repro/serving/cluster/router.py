"""Routing policies: which replica an arriving request is dispatched to.

The cluster front door, and the only placement decision in the serving
tier.  Routing happens live: the policy sees the replicas' actual queue
depths, batch occupancy and KV pressure at the request's arrival instant,
because the cluster interleaves replica execution under a global clock.
Policies follow the same registry pattern as :mod:`repro.serving.policies`
(a name -> class dict plus a ``resolve_*`` helper accepting names or
instances) and are deterministic: every tie breaks on the lowest replica
id.

``round_robin``
    Dispatch counter modulo the routable fleet — the baseline spreader.
``least_queue``
    Fewest outstanding requests (queued + running) wins — classic
    least-outstanding-requests balancing, robust to heterogeneous lengths.
``least_kv_pressure``
    Lowest KV block-pool occupancy wins; degrades to ``least_queue`` when
    replicas run without a KV manager (all utilizations are then 0.0).
``prefix_affinity``
    Requests sharing a ``prefix_group`` stick to the replica that first
    served the group, so the per-replica prefix caches (PR 3) keep hitting
    instead of each replica recomputing the same shared prompt.
    Group-less requests and first-seen groups fall back to ``least_queue``;
    a group whose pinned replica left the fleet is re-pinned.
``kv_transfer_aware``
    The decode-stage policy of a disaggregated fleet: a migrated request
    carries ``migrated_kv_tokens`` of KV state, so replicas whose pool can
    absorb the import without overdrawing rank first, then lowest KV
    occupancy, then fewest outstanding requests.  Degrades to
    ``least_queue`` for KV-less fleets and non-migrated requests.
``score``
    Least outstanding SLO-class *value* wins (the sum of class value
    weights queued or running on the replica, see
    :attr:`DeviceWorker.value_load`) — the routing face of score-based
    scheduling: interactive-heavy replicas read "fuller" than
    best-effort-heavy ones with the same request count, so high-value
    queues stay short.  On unclassed traffic every request weighs the
    same and the policy orders exactly like ``least_queue``.
"""

from __future__ import annotations

from typing import (
    Container,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Type,
    Union,
)

from repro.serving.engine import DeviceWorker
from repro.serving.request import ServingRequest


class RoutingPolicy:
    """Selects a replica for one arriving request; deterministic."""

    name: str = "abstract"

    def select_replica(self, request: ServingRequest,
                       replicas: List[DeviceWorker]) -> int:
        """Return the chosen replica's ``device_id``.

        ``replicas`` holds the currently routable fleet in ascending
        ``device_id`` order and is never empty.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any dispatch state (a fresh run).  The cluster calls
        this at the top of every ``run()`` so repeated runs of one
        cluster object replay identically; stateless policies keep the
        no-op default."""

    def observe_trace(self, requests: Sequence[ServingRequest]) -> None:
        """Let the policy precompute over the run's full request list.

        Called once per ``run()`` (after :meth:`reset`, before the first
        dispatch).  An open-loop trace is known up front in this
        simulator, so a stateful policy may size its bookkeeping from it —
        ``prefix_affinity`` counts group members here to evict each pin at
        its group's last dispatch.  Stateless policies keep the no-op
        default."""

    def routed_elsewhere(self, upcoming: Iterable[ServingRequest],
                         routable: Container[int], device_id: int) -> int:
        """How many of the leading ``upcoming`` requests (the next
        arrivals, in dispatch order) this policy will route to a replica
        other than ``device_id`` without reading any replica's state.

        ``routable`` holds the ids of the routable fleet now.  The answer
        assumes that nothing but those requests' own dispatches happens
        before them: no control tick, fault or retry, so the routable
        fleet can only grow (a warm-up activation).  The event kernel
        runs replica ``device_id`` ahead past that many arrivals, since
        their dispatches neither read nor reach it.  The default names no
        replica, so every arrival ends the run-ahead."""
        return 0


def _least_queue(replicas: List[DeviceWorker]) -> int:
    return min(replicas,
               key=lambda r: (r.in_system, r.device_id)).device_id


class RoundRobinRouting(RoutingPolicy):
    """Dispatch counter modulo the routable fleet.

    The fleet can grow and shrink between dispatches, so the counter
    indexes the *current* routable list (ascending replica id) rather than
    a fixed device range; with a static fleet it is arrival index modulo
    the fleet size.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._placed = 0

    def reset(self) -> None:
        self._placed = 0

    def select_replica(self, request: ServingRequest,
                       replicas: List[DeviceWorker]) -> int:
        choice = replicas[self._placed % len(replicas)].device_id
        self._placed += 1
        return choice


class LeastQueueRouting(RoutingPolicy):
    """Fewest outstanding requests wins; lowest replica id breaks ties."""

    name = "least_queue"

    def select_replica(self, request: ServingRequest,
                       replicas: List[DeviceWorker]) -> int:
        return _least_queue(replicas)


class LeastKVPressureRouting(RoutingPolicy):
    """Lowest KV-pool occupancy wins; ties by outstanding requests, then id.

    Keeps memory pressure — and therefore preemption recompute — even
    across the fleet.  Without KV managers every utilization is 0.0 and
    the tie-break makes this ``least_queue``.
    """

    name = "least_kv_pressure"

    def select_replica(self, request: ServingRequest,
                       replicas: List[DeviceWorker]) -> int:
        return min(replicas,
                   key=lambda r: (r.kv_utilization, r.in_system,
                                  r.device_id)).device_id


class PrefixAffinityRouting(RoutingPolicy):
    """Sticky routing by ``prefix_group`` so prefix caches keep hitting.

    The first request of a group is balanced like ``least_queue`` and pins
    its group to the chosen replica; every later member follows the pin.
    A pin whose replica is no longer routable (drained away) is dropped
    and the group re-pins on its next request.

    Pins are *evicted* at their group's last dispatch: ``observe_trace``
    counts each group's members up front, ``select_replica`` decrements
    the count at each member's first dispatch, and the pin is dropped the
    moment the count hits zero — a retired group's members have all been
    routed, so keeping its pin would be a pure leak.  A crash retry
    (``request.retries > 0``) dispatches a member again: it follows (or
    re-makes) a live group's pin without counting, and a retired group's
    retry is balanced like ``least_queue`` without pinning anything.  The
    pin map is therefore bounded by the number of *concurrently in-flight*
    groups, not the total groups a trace ever names (``peak_pins`` records
    the high-water mark; before this eviction the map grew monotonically
    and a million-request trace with many groups leaked an entry per
    group).  Dispatches of groups the policy was never told about (no
    ``observe_trace``) keep the old keep-forever behaviour, since their
    last request is unknowable.
    """

    name = "prefix_affinity"

    def __init__(self) -> None:
        self._pins: Dict[str, int] = {}
        # Members not yet dispatched, per observed group (0: retired).
        self._remaining: Dict[str, int] = {}
        self.peak_pins = 0

    def reset(self) -> None:
        self._pins.clear()
        self._remaining.clear()
        self.peak_pins = 0

    def observe_trace(self, requests: Sequence[ServingRequest]) -> None:
        self._remaining.clear()
        for request in requests:
            group = request.prefix_group
            if group is not None:
                self._remaining[group] = self._remaining.get(group, 0) + 1

    @property
    def pinned_groups(self) -> int:
        """Live pin-map size (what the boundedness guarantee is about)."""
        return len(self._pins)

    def select_replica(self, request: ServingRequest,
                       replicas: List[DeviceWorker]) -> int:
        group = request.prefix_group
        left = self._remaining.get(group)
        if group is None or left == 0:
            return _least_queue(replicas)
        available = {replica.device_id for replica in replicas}
        pinned = self._pins.get(group)
        if pinned is not None and pinned in available:
            choice = pinned
        else:
            choice = _least_queue(replicas)
            self._pins[group] = choice
            if len(self._pins) > self.peak_pins:
                self.peak_pins = len(self._pins)
        if left is not None and not request.retries:
            if left == 1:
                self._remaining[group] = 0
                del self._pins[group]
            else:
                self._remaining[group] = left - 1
        return choice

    def routed_elsewhere(self, upcoming: Iterable[ServingRequest],
                         routable: Container[int], device_id: int) -> int:
        """A live pin on a routable replica names the dispatch.  Pins are
        created only by dispatches that read the fleet, and routability
        shrinks only at ticks and faults, so a pin seen here holds until
        its request is dispatched: the upcoming arrivals are first
        dispatches of members not yet counted, so none of them retires a
        group ahead of a later one."""
        pins = self._pins
        passed = 0
        for request in upcoming:
            pinned = pins.get(request.prefix_group)
            if pinned is None or pinned == device_id \
                    or pinned not in routable:
                break
            passed += 1
        return passed


class KVTransferAwareRouting(RoutingPolicy):
    """Route a migrated request to the decode replica best placed to host
    its imported KV.

    Ranking: smallest block *shortfall* for the import first (0 means the
    replica's free + reclaimable blocks cover the migrated KV — importing
    there causes no immediate preemption pressure), then fewest in-flight
    KV bytes still streaming toward the replica (a streamed hand-off
    commits interconnect traffic the moment its first chunk dispatches —
    ranking by bytes remaining, not whole migrations, keeps a replica
    receiving one huge stream from looking as free as one receiving a
    tiny one), then lowest KV-pool occupancy, then fewest outstanding
    requests, then lowest replica id.  Without KV managers and with
    monolithic hand-offs every shortfall, inbound byte count and
    occupancy is 0 and the policy is exactly ``least_queue``; the same
    holds for fresh (non-migrated) requests, so the policy is also
    usable as a general router.
    """

    name = "kv_transfer_aware"

    def select_replica(self, request: ServingRequest,
                       replicas: List[DeviceWorker]) -> int:
        tokens = request.migrated_kv_tokens
        return min(replicas,
                   key=lambda r: (r.kv_shortfall_blocks(tokens),
                                  r.inbound_kv_bytes,
                                  r.kv_utilization, r.in_system,
                                  r.device_id)).device_id


class ScoreAwareRouting(RoutingPolicy):
    """Least outstanding class value wins; ties by request count, then id.

    The routing face of score-based scheduling: each replica's load reads
    as the summed SLO-class value of its queued + resident requests
    (:attr:`DeviceWorker.value_load`), so a replica holding interactive
    traffic looks fuller than one holding the same *count* of best-effort
    work, and fresh arrivals spread away from it — high-value queues stay
    short without starving anyone (admission aging handles that side).
    Every unclassed request weighs the same, so on a classless fleet the
    ordering reduces to ``least_queue``.
    """

    name = "score"

    def select_replica(self, request: ServingRequest,
                       replicas: List[DeviceWorker]) -> int:
        return min(replicas,
                   key=lambda r: (r.value_load, r.in_system,
                                  r.device_id)).device_id


ROUTING_POLICIES: Dict[str, Type[RoutingPolicy]] = {
    RoundRobinRouting.name: RoundRobinRouting,
    LeastQueueRouting.name: LeastQueueRouting,
    LeastKVPressureRouting.name: LeastKVPressureRouting,
    PrefixAffinityRouting.name: PrefixAffinityRouting,
    KVTransferAwareRouting.name: KVTransferAwareRouting,
    ScoreAwareRouting.name: ScoreAwareRouting,
}


def resolve_routing_policy(policy: Union[str, RoutingPolicy]) -> RoutingPolicy:
    """Accepts a policy name or a :class:`RoutingPolicy` instance."""
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        return ROUTING_POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown routing policy {policy!r}; "
            f"choose from {sorted(ROUTING_POLICIES)}") from None


class ClusterRouter:
    """The cluster front door: dispatches one arrival to one replica.

    A thin, policy-driven component so the orchestration loop never
    hard-codes a balancing strategy; it also validates the policy's
    choice.
    """

    def __init__(self, policy: Union[str, RoutingPolicy] = "round_robin"
                 ) -> None:
        self.policy = resolve_routing_policy(policy)
        # id -> replica map for the pool list last dispatched into.
        # The cluster hands the router the *same* (cached) list object
        # until the routable fleet actually changes, so the map is
        # rebuilt only on lifecycle transitions instead of per arrival.
        # Holding a reference to the list itself (not its id()) keys the
        # cache safely; a caller that mutates a pool list in place
        # between dispatches would defeat it, so pool lists are
        # treated as immutable snapshots everywhere in this package.
        self._last_pool: Optional[List[DeviceWorker]] = None
        self._by_id: Dict[int, DeviceWorker] = {}

    def dispatch(self, request: ServingRequest,
                 replicas: List[DeviceWorker]) -> DeviceWorker:
        """Route ``request`` to a routable replica and submit it."""
        if not replicas:
            raise RuntimeError("no routable replicas to dispatch to")
        choice = self.policy.select_replica(request, replicas)
        if replicas is not self._last_pool:
            self._by_id = {replica.device_id: replica
                           for replica in replicas}
            self._last_pool = replicas
        replica = self._by_id.get(choice)
        if replica is None:
            raise ValueError(
                f"routing policy {self.policy.name!r} chose replica "
                f"{choice}, not one of the routable "
                f"{sorted(self._by_id)}")
        replica.submit(request)
        return replica
