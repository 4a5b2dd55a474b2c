"""Unit tests for the discrete-event core (:mod:`repro.serving.cluster.
events`): deterministic ordering, kind-priority tie-breaking, lazy step
invalidation and the recording log.  The kernel built on top is covered
by the differential suite (``test_kernel_differential.py``) and the
invariant sweep (``test_kernel_invariants.py``)."""

import pytest

from repro.serving.cluster import Event, EventKind, EventQueue


class FakeReplica:
    """The two attributes ``arm_step`` reads."""

    def __init__(self, replica_id, next_ready_s):
        self.replica_id = replica_id
        self.next_ready_s = next_ready_s


def pop_all(queue):
    events = []
    while True:
        event = queue.pop()
        if event is None:
            break
        events.append(event)
    return events


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, EventKind.ARRIVAL)
        queue.push(1.0, EventKind.ARRIVAL)
        queue.push(2.0, EventKind.ARRIVAL)
        assert [event[0] for event in pop_all(queue)] == [1.0, 2.0, 3.0]

    def test_kind_breaks_equal_time_ties(self):
        """At one instant the legacy loop's cascade order holds: arrival,
        then migration landing, then control tick, then step — encoded as
        the EventKind integer values."""
        queue = EventQueue()
        replica = FakeReplica(0, 5.0)
        queue.arm_step(replica)
        queue.push(5.0, EventKind.CONTROL_TICK)
        queue.push(5.0, EventKind.TRANSFER_LANDED, tie=1)
        queue.push(5.0, EventKind.ARRIVAL)
        kinds = [event[1] for event in pop_all(queue)]
        assert kinds == [int(EventKind.ARRIVAL),
                         int(EventKind.TRANSFER_LANDED),
                         int(EventKind.CONTROL_TICK),
                         int(EventKind.STEP)]

    def test_step_ties_break_on_lowest_replica_id(self):
        """Equal-time steps fire lowest replica id first — exactly the
        old ``min(live, key=(next_ready_s, replica_id))``."""
        queue = EventQueue()
        for replica_id in (2, 0, 1):
            queue.arm_step(FakeReplica(replica_id, 1.5))
        assert [event[4].replica_id for event in pop_all(queue)] == [0, 1, 2]

    def test_transfer_ties_break_on_migration_seq(self):
        queue = EventQueue()
        queue.push(2.0, EventKind.TRANSFER_LANDED, tie=7, payload="late")
        queue.push(2.0, EventKind.TRANSFER_LANDED, tie=3, payload="early")
        assert [event[4] for event in pop_all(queue)] == ["early", "late"]

    def test_identical_keys_pop_in_push_order(self):
        """The global seq makes every heap key unique, so equal
        (time, kind, tie) events keep FIFO push order and heap order
        never falls through to comparing payloads."""
        queue = EventQueue()
        queue.push(1.0, EventKind.ARRIVAL, payload=object())
        queue.push(1.0, EventKind.ARRIVAL, payload=object())
        first, second = pop_all(queue)
        assert first[3] < second[3]

    def test_out_of_order_push_is_caught(self):
        """Delivering an event earlier than one already delivered is the
        kernel's core invariant violation — raised (also under
        ``python -O``), not silently reordered."""
        queue = EventQueue()
        queue.push(5.0, EventKind.ARRIVAL)
        queue.pop()
        queue.push(1.0, EventKind.ARRIVAL)
        with pytest.raises(RuntimeError,
                           match="event queue delivered out of order"):
            queue.pop()

    def test_same_instant_lower_priority_push_is_caught(self):
        """An earlier key at the same instant — an arrival pushed after
        a step at that time was delivered — is out of order too."""
        queue = EventQueue()
        queue.arm_step(FakeReplica(0, 2.0))
        queue.pop()
        queue.push(2.0, EventKind.ARRIVAL)
        with pytest.raises(RuntimeError, match="out of order"):
            queue.pop()


class TestLazyInvalidation:
    def test_rearm_supersedes_previous_step(self):
        """Re-arming a replica leaves the old heap entry in place but
        stale; pop skips it and delivers only the current one."""
        queue = EventQueue()
        replica = FakeReplica(0, 4.0)
        queue.arm_step(replica)
        replica.next_ready_s = 2.0
        queue.arm_step(replica)
        events = pop_all(queue)
        assert [(event[0], event[4]) for event in events] == [(2.0, replica)]
        assert queue.popped == 1
        assert queue.stale_dropped == 1

    def test_disarm_invalidates_without_rearming(self):
        queue = EventQueue()
        replica = FakeReplica(3, 1.0)
        queue.arm_step(replica)
        queue.disarm_step(replica.replica_id)
        assert queue.pop() is None
        assert queue.stale_dropped == 1

    def test_disarm_unknown_replica_is_noop(self):
        queue = EventQueue()
        queue.disarm_step(99)
        assert queue.pop() is None

    def test_len_counts_stale_entries_until_popped(self):
        queue = EventQueue()
        replica = FakeReplica(0, 4.0)
        queue.arm_step(replica)
        queue.arm_step(replica)
        assert len(queue) == 2
        pop_all(queue)
        assert len(queue) == 0

    def test_step_payload_unwraps_to_replica(self):
        """The version tag is queue bookkeeping; the popped payload is
        the replica itself."""
        queue = EventQueue()
        replica = FakeReplica(1, 0.5)
        queue.arm_step(replica)
        event = queue.pop()
        assert event[4] is replica


class TestOnPop:
    """The ``on_pop`` sink replaced the old ``record=True`` log: the
    queue itself retains nothing, and typed ``Event`` records are
    materialized lazily from the tracer's kernel log — the one
    event-materialization path."""

    def test_no_sink_by_default(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.ARRIVAL)
        assert queue.on_pop is None
        assert queue.pop() is not None

    def test_sink_receives_raw_entries_with_step_unwrapped(self):
        seen = []
        queue = EventQueue(on_pop=seen.append)
        queue.push(1.0, EventKind.ARRIVAL)
        replica = FakeReplica(2, 1.0)
        queue.arm_step(replica)
        pop_all(queue)
        assert [entry[1] for entry in seen] == [int(EventKind.ARRIVAL),
                                                int(EventKind.STEP)]
        # The step entry's payload is the replica itself, not the
        # (replica, version) bookkeeping tuple.
        assert seen[1][4] is replica

    def test_sink_skips_stale_entries(self):
        seen = []
        queue = EventQueue(on_pop=seen.append)
        replica = FakeReplica(0, 3.0)
        queue.arm_step(replica)
        queue.arm_step(replica)
        pop_all(queue)
        assert len(seen) == 1

    def test_tracer_kernel_log_materializes_typed_events(self):
        from repro.serving.telemetry import Tracer

        tracer = Tracer()
        tracer.enable_kernel_log()
        queue = EventQueue(on_pop=tracer.kernel_event)
        queue.push(1.0, EventKind.ARRIVAL)
        queue.arm_step(FakeReplica(2, 1.0))
        pop_all(queue)
        log = tracer.kernel_events()
        assert [type(event) for event in log] == [Event, Event]
        arrival, step = log
        assert arrival.kind is EventKind.ARRIVAL
        assert step.kind is EventKind.STEP
        assert step.tie == 2
        assert arrival.key <= step.key

    def test_kernel_log_none_unless_enabled(self):
        from repro.serving.telemetry import Tracer

        assert Tracer().kernel_events() is None
