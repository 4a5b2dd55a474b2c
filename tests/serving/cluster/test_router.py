"""Tests for cluster routing policies (pure selectors over replica load)."""

from dataclasses import dataclass, field
from typing import Optional

import pytest

from repro.models.config import GPT2
from repro.models.workload import Workload
from repro.serving.cluster import (ROUTING_POLICIES, ServingCluster,
                                   resolve_routing_policy)
from repro.serving.cluster.router import ClusterRouter, PrefixAffinityRouting
from repro.serving.request import ServingRequest
from tests.serving.cluster.test_kernel_differential import CONFIGS
from tests.serving.cluster.test_pinned_horizons import \
    _config as pinned_horizon_config


@dataclass
class StubReplica:
    """Just the load-signal surface the routing policies read."""

    device_id: int
    in_system: int = 0
    kv_utilization: float = 0.0
    submitted: list = field(default_factory=list)

    def submit(self, request):
        self.submitted.append(request)


def make_request(request_id=0, prefix_group: Optional[str] = None):
    return ServingRequest(request_id, Workload(16, 8), 0.0,
                          prefix_group=prefix_group,
                          prefix_len=8 if prefix_group else 0)


class TestRegistry:
    def test_known_policies(self):
        assert sorted(ROUTING_POLICIES) == [
            "kv_transfer_aware", "least_kv_pressure", "least_queue",
            "prefix_affinity", "round_robin", "score"]

    def test_resolve_by_name_and_instance(self):
        policy = resolve_routing_policy("least_queue")
        assert policy.name == "least_queue"
        assert resolve_routing_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            resolve_routing_policy("random")


class TestRoundRobin:
    def test_cycles_over_fleet(self):
        policy = resolve_routing_policy("round_robin")
        replicas = [StubReplica(i) for i in range(3)]
        picks = [policy.select_replica(make_request(i), replicas)
                 for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_counter_survives_fleet_growth(self):
        policy = resolve_routing_policy("round_robin")
        replicas = [StubReplica(0), StubReplica(1)]
        assert policy.select_replica(make_request(0), replicas) == 0
        replicas.append(StubReplica(2))
        assert policy.select_replica(make_request(1), replicas) == 1
        assert policy.select_replica(make_request(2), replicas) == 2


class TestLeastQueue:
    def test_fewest_outstanding_wins(self):
        policy = resolve_routing_policy("least_queue")
        replicas = [StubReplica(0, in_system=3), StubReplica(1, in_system=1),
                    StubReplica(2, in_system=2)]
        assert policy.select_replica(make_request(), replicas) == 1

    def test_tie_breaks_on_lowest_id(self):
        policy = resolve_routing_policy("least_queue")
        replicas = [StubReplica(0, in_system=2), StubReplica(1, in_system=2)]
        assert policy.select_replica(make_request(), replicas) == 0


class TestLeastKVPressure:
    def test_lowest_utilization_wins(self):
        policy = resolve_routing_policy("least_kv_pressure")
        replicas = [StubReplica(0, kv_utilization=0.8),
                    StubReplica(1, kv_utilization=0.2),
                    StubReplica(2, kv_utilization=0.5)]
        assert policy.select_replica(make_request(), replicas) == 1

    def test_degrades_to_least_queue_without_kv(self):
        policy = resolve_routing_policy("least_kv_pressure")
        replicas = [StubReplica(0, in_system=4), StubReplica(1, in_system=1)]
        assert policy.select_replica(make_request(), replicas) == 1


class TestPrefixAffinity:
    def test_group_sticks_to_first_choice(self):
        policy = resolve_routing_policy("prefix_affinity")
        replicas = [StubReplica(0, in_system=5), StubReplica(1, in_system=0)]
        first = policy.select_replica(make_request(0, "sys-a"), replicas)
        assert first == 1  # least-queue pick for a fresh group
        replicas[1].in_system = 99  # later load must not break the pin
        assert policy.select_replica(make_request(1, "sys-a"), replicas) == 1

    def test_groupless_requests_balance_by_queue(self):
        policy = resolve_routing_policy("prefix_affinity")
        replicas = [StubReplica(0, in_system=5), StubReplica(1, in_system=0)]
        assert policy.select_replica(make_request(0), replicas) == 1

    def test_departed_pin_is_reassigned(self):
        policy = resolve_routing_policy("prefix_affinity")
        replicas = [StubReplica(0, in_system=1), StubReplica(1, in_system=0)]
        assert policy.select_replica(make_request(0, "sys-a"), replicas) == 1
        survivors = [StubReplica(0, in_system=1)]  # replica 1 drained away
        assert policy.select_replica(make_request(1, "sys-a"),
                                     survivors) == 0

    def test_distinct_groups_spread(self):
        policy = resolve_routing_policy("prefix_affinity")
        replicas = [StubReplica(0), StubReplica(1)]
        first = policy.select_replica(make_request(0, "sys-a"), replicas)
        replicas[first].in_system += 1
        second = policy.select_replica(make_request(1, "sys-b"), replicas)
        assert {first, second} == {0, 1}

    def test_pin_evicted_at_groups_last_dispatch(self):
        """The unbounded-growth fix: after observe_trace, a group's pin
        is dropped the moment its last member is dispatched."""
        policy = resolve_routing_policy("prefix_affinity")
        replicas = [StubReplica(0), StubReplica(1)]
        trace = [make_request(0, "sys-a"), make_request(1, "sys-a"),
                 make_request(2, "sys-b")]
        policy.observe_trace(trace)
        policy.select_replica(trace[0], replicas)
        assert policy.pinned_groups == 1
        policy.select_replica(trace[1], replicas)   # last of sys-a
        assert policy.pinned_groups == 0
        policy.select_replica(trace[2], replicas)   # only sys-b member
        assert policy.pinned_groups == 0

    def test_pin_map_bounded_by_concurrent_groups(self):
        """A trace naming many sequential groups must not leak one pin
        per group: the map's high-water mark stays at the number of
        concurrently in-flight groups (1 here), however many groups the
        trace names."""
        policy = resolve_routing_policy("prefix_affinity")
        replicas = [StubReplica(0), StubReplica(1)]
        trace = [make_request(i, f"group-{i}") for i in range(200)]
        policy.observe_trace(trace)
        for request in trace:
            policy.select_replica(request, replicas)
        assert policy.pinned_groups == 0
        assert policy.peak_pins == 1

    def test_unobserved_groups_keep_their_pins(self):
        """Without observe_trace the last member is unknowable, so pins
        fall back to the old keep-forever behaviour."""
        policy = resolve_routing_policy("prefix_affinity")
        replicas = [StubReplica(0), StubReplica(1)]
        policy.select_replica(make_request(0, "sys-a"), replicas)
        assert policy.pinned_groups == 1

    def test_reset_clears_pins_and_counts(self):
        policy = resolve_routing_policy("prefix_affinity")
        replicas = [StubReplica(0)]
        trace = [make_request(0, "sys-a")]
        policy.observe_trace(trace)
        policy.select_replica(trace[0], replicas)
        policy.reset()
        assert policy.pinned_groups == 0
        assert policy.peak_pins == 0


class TestRoutedElsewhere:
    """``routed_elsewhere`` counts the leading upcoming requests a
    dispatch sends to another replica without reading any replica."""

    def pinned(self, trace, pins):
        """prefix_affinity with ``trace`` observed and each group of
        ``pins`` pinned to its replica by a first dispatch."""
        policy = resolve_routing_policy("prefix_affinity")
        firsts = [make_request(100 + index, group)
                  for index, group in enumerate(pins)]
        policy.observe_trace(firsts + trace)
        for first, device_id in zip(firsts, pins.values()):
            assert policy.select_replica(
                first, [StubReplica(device_id)]) == device_id
        return policy

    def test_default_names_no_replica(self):
        for name in ROUTING_POLICIES:
            if name != "prefix_affinity":
                policy = resolve_routing_policy(name)
                assert policy.routed_elsewhere(
                    [make_request(0, "sys-a")], {0, 1}, 0) == 0

    def test_stops_at_a_fleet_reading_or_own_dispatch(self):
        trace = [make_request(0, "a"), make_request(1, "b"),
                 make_request(2, "a"), make_request(3, None),
                 make_request(4, "a")]
        policy = self.pinned(trace, {"a": 1, "b": 2})
        # Pinned elsewhere, elsewhere, elsewhere, then a group-less one.
        assert policy.routed_elsewhere(trace, {0, 1, 2}, 0) == 3
        # Replica 2's own pin ends its look-ahead at the second request.
        assert policy.routed_elsewhere(trace, {0, 1, 2}, 2) == 1
        # An unpinned group reads the fleet.
        assert policy.routed_elsewhere([make_request(5, "c")],
                                       {0, 1, 2}, 0) == 0

    def test_pin_on_an_unroutable_replica_reads_the_fleet(self):
        trace = [make_request(0, "b"), make_request(1, "a")]
        policy = self.pinned(trace, {"a": 1, "b": 2})
        assert policy.routed_elsewhere(trace, {0, 1, 2}, 0) == 2
        # Replica 1 drained or crashed: "a" is re-pinned by least_queue.
        assert policy.routed_elsewhere(trace, {0, 2}, 0) == 1

    def test_pin_evicted_by_an_earlier_dispatch_reads_the_fleet(self):
        """A crash retry of the pinning request follows the pin without
        counting against its group: the pin holds for all three upcoming
        members and is evicted at the last one's dispatch."""
        trace = [make_request(0, "a"), make_request(1, "a"),
                 make_request(2, "a")]
        policy = self.pinned(trace, {"a": 1})
        assert policy.routed_elsewhere(trace, {0, 1}, 0) == 3
        # The pinning request is lost in a crash and retried.
        retry = make_request(100, "a")
        retry.retries = 1
        both = [StubReplica(0), StubReplica(1)]
        assert policy.select_replica(retry, both) == 1
        assert policy.routed_elsewhere(trace, {0, 1}, 0) == 3
        for request in trace:
            assert policy.pinned_groups == 1
            assert policy.select_replica(request, both) == 1
        assert policy.pinned_groups == 0

    def test_retry_of_a_retired_group_pins_nothing(self):
        trace = [make_request(0, "a")]
        policy = self.pinned(trace, {"a": 1})
        assert policy.select_replica(trace[0], [StubReplica(1)]) == 1
        assert policy.pinned_groups == 0
        retry = make_request(0, "a")
        retry.retries = 1
        # Balanced like least_queue, and no pin outlives the group.
        assert policy.select_replica(
            retry, [StubReplica(0, in_system=3), StubReplica(1)]) == 1
        assert policy.pinned_groups == 0
        assert policy.routed_elsewhere([retry], {0, 1}, 0) == 0

    def test_retry_re_pins_a_live_group_without_counting(self):
        trace = [make_request(0, "a"), make_request(1, "a")]
        policy = self.pinned(trace, {"a": 1})
        retry = make_request(100, "a")
        retry.retries = 1
        # Replica 1 crashed: the retry re-pins the group by least_queue.
        assert policy.select_replica(
            retry, [StubReplica(0), StubReplica(2, in_system=1)]) == 0
        assert policy.routed_elsewhere(trace, {0, 2}, 2) == 2
        assert policy.select_replica(trace[0], [StubReplica(0)]) == 0
        assert policy.pinned_groups == 1
        assert policy.select_replica(trace[1], [StubReplica(0)]) == 0
        assert policy.pinned_groups == 0


class TestScoreAwareRouting:
    def stub(self, device_id, value_load=0.0, in_system=0):
        replica = StubReplica(device_id, in_system=in_system)
        replica.value_load = value_load
        return replica

    def test_least_value_load_wins(self):
        policy = resolve_routing_policy("score")
        replicas = [self.stub(0, value_load=16.0, in_system=2),
                    self.stub(1, value_load=3.0, in_system=3)]
        assert policy.select_replica(make_request(), replicas) == 1

    def test_value_ties_break_on_request_count_then_id(self):
        policy = resolve_routing_policy("score")
        replicas = [self.stub(0, value_load=8.0, in_system=4),
                    self.stub(1, value_load=8.0, in_system=1)]
        assert policy.select_replica(make_request(), replicas) == 1
        equal = [self.stub(0), self.stub(1)]
        assert policy.select_replica(make_request(), equal) == 0


class TestClusterRouter:
    def test_dispatch_submits_to_chosen_replica(self):
        router = ClusterRouter("least_queue")
        replicas = [StubReplica(0, in_system=2), StubReplica(1)]
        request = make_request()
        chosen = router.dispatch(request, replicas)
        assert chosen.device_id == 1
        assert replicas[1].submitted == [request]

    def test_dispatch_requires_routable_replicas(self):
        with pytest.raises(RuntimeError, match="no routable replicas"):
            ClusterRouter().dispatch(make_request(), [])

    def test_policy_choice_validated(self):
        class BadPolicy(ROUTING_POLICIES["least_queue"]):
            name = "bad"

            def select_replica(self, request, replicas):
                return 99

        router = ClusterRouter(BadPolicy())
        with pytest.raises(ValueError, match="chose replica 99"):
            router.dispatch(make_request(), [StubReplica(0)])


class StubKVReplica(StubReplica):
    """StubReplica plus the import-fit and inbound-stream signals
    kv_transfer_aware reads."""

    def __init__(self, device_id, in_system=0, kv_utilization=0.0,
                 shortfall=0, inbound_kv_bytes=0.0):
        super().__init__(device_id, in_system=in_system,
                         kv_utilization=kv_utilization)
        self._shortfall = shortfall
        self.inbound_kv_bytes = inbound_kv_bytes

    def kv_shortfall_blocks(self, tokens):
        return self._shortfall if tokens > 0 else 0


def make_migrated_request(request_id=0, kv_tokens=64):
    request = make_request(request_id)
    request.migrated_kv_tokens = kv_tokens
    return request


class TestKVTransferAware:
    def test_fitting_replica_beats_overdrawn_one(self):
        policy = resolve_routing_policy("kv_transfer_aware")
        replicas = [StubKVReplica(0, kv_utilization=0.1, shortfall=4),
                    StubKVReplica(1, kv_utilization=0.9, shortfall=0)]
        assert policy.select_replica(make_migrated_request(), replicas) == 1

    def test_lowest_occupancy_wins_among_fitting(self):
        policy = resolve_routing_policy("kv_transfer_aware")
        replicas = [StubKVReplica(0, kv_utilization=0.6),
                    StubKVReplica(1, kv_utilization=0.2)]
        assert policy.select_replica(make_migrated_request(), replicas) == 1

    def test_fewest_inbound_stream_bytes_wins_among_fitting(self):
        """Streamed hand-offs commit interconnect traffic at dispatch:
        the replica with fewer KV bytes still in flight toward it wins,
        ahead of occupancy and queue depth."""
        policy = resolve_routing_policy("kv_transfer_aware")
        replicas = [StubKVReplica(0, inbound_kv_bytes=2e6),
                    StubKVReplica(1, kv_utilization=0.5, in_system=3,
                                  inbound_kv_bytes=1e4)]
        assert policy.select_replica(make_migrated_request(), replicas) == 1

    def test_shortfall_still_beats_inbound_bytes(self):
        policy = resolve_routing_policy("kv_transfer_aware")
        replicas = [StubKVReplica(0, shortfall=2),
                    StubKVReplica(1, inbound_kv_bytes=5e7)]
        assert policy.select_replica(make_migrated_request(), replicas) == 1

    def test_degrades_to_least_queue_without_kv(self):
        policy = resolve_routing_policy("kv_transfer_aware")
        replicas = [StubKVReplica(0, in_system=4), StubKVReplica(1)]
        assert policy.select_replica(make_migrated_request(), replicas) == 1
        # A fresh (non-migrated) request behaves the same way.
        assert policy.select_replica(make_request(), replicas) == 1


class TestTieBreakDeterminism:
    """Under perfectly equal load every policy must resolve ties on the
    lowest replica id, so a fleet of equals is routed identically on
    every run (no dict-order or float incidentals)."""

    def equal_fleet(self):
        return [StubReplica(0), StubReplica(1), StubReplica(2)]

    def test_all_stateless_policies_pick_lowest_id_on_full_tie(self):
        for name in ["least_queue", "least_kv_pressure", "prefix_affinity"]:
            policy = resolve_routing_policy(name)
            assert policy.select_replica(make_request(), self.equal_fleet()) \
                == 0, name
        kv_policy = resolve_routing_policy("kv_transfer_aware")
        fleet = [StubKVReplica(0), StubKVReplica(1), StubKVReplica(2)]
        assert kv_policy.select_replica(make_migrated_request(), fleet) == 0

    def test_equal_load_choices_replay_identically(self):
        for name in ["round_robin", "least_queue", "least_kv_pressure"]:
            def choices():
                policy = resolve_routing_policy(name)
                return [policy.select_replica(make_request(i),
                                              self.equal_fleet())
                        for i in range(9)]
            assert choices() == choices(), name

    def test_round_robin_reset_restarts_cycle(self):
        policy = resolve_routing_policy("round_robin")
        fleet = self.equal_fleet()
        first = [policy.select_replica(make_request(i), fleet)
                 for i in range(4)]
        policy.reset()
        second = [policy.select_replica(make_request(i), fleet)
                  for i in range(4)]
        assert first[:3] == second[:3] == [0, 1, 2]


class _RecordingAffinity(PrefixAffinityRouting):
    """``prefix_affinity`` recording each dispatch as ``(request id,
    retries, prefix group, live pin or None, chosen replica)``."""

    def __init__(self):
        super().__init__()
        self.dispatches = []

    def select_replica(self, request, replicas):
        pinned = self._pins.get(request.prefix_group)
        if pinned not in {replica.device_id for replica in replicas}:
            pinned = None
        choice = super().select_replica(request, replicas)
        self.dispatches.append((request.request_id, request.retries,
                                request.prefix_group, pinned, choice))
        return choice


def retried_dispatches(kwargs, trace):
    """``(request id, group at first dispatch, group, live pin, choice)``
    of every retry dispatch of a grouped request in one run."""
    router = _RecordingAffinity()
    ServingCluster(GPT2, **dict(kwargs, router=router)).run(trace)
    first_group = {rid: group for rid, retries, group, _, _
                   in router.dispatches if not retries}
    return [(rid, first_group[rid], group, pinned, choice)
            for rid, retries, group, pinned, choice in router.dispatches
            if retries and first_group[rid] is not None]


class TestCrashRetriesKeepTheirGroup:
    """A crash-lost ``prefix_affinity`` turn is retried from its original
    prompt, so it keeps its session's prefix group and the router sends
    it after the group's pin while that pin is live."""

    def test_retried_turns_reach_the_router_with_their_group(self):
        retried = retried_dispatches(
            *CONFIGS["prefix_affinity_autoscaled_crash"])
        assert retried, "the crash must lose grouped turns in flight"
        for rid, first, group, pinned, choice in retried:
            assert group == first, f"retry of {rid} lost its group"
            if pinned is not None:
                assert choice == pinned, f"retry of {rid} left its pin"

    def test_a_retry_follows_its_live_group_pin(self):
        """Seed 10 of the per-replica horizon sweep loses a turn whose
        session is still pinned to a live replica."""
        retried = retried_dispatches(*pinned_horizon_config(10))
        live = [d for d in retried if d[3] is not None]
        assert live, "some retry must find its group's pin live"
        for rid, first, group, pinned, choice in live:
            assert choice == pinned, f"retry of {rid} left its pin"
