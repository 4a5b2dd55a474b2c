"""Arrival run-ahead must be invisible: the event kernel dispatches
back-to-back arrivals without a heap push and pop each, and every
observable of the kernel stays what the push-and-pop kernel produced.

Two pins, both recorded before the fast path existed:

* the popped-event log of a trace built to stress the equal-time order
  — bursts of same-instant arrivals, arrivals on control-tick instants
  and arrivals on engine-step instants — every field, ``seq`` included;
* ``event_counts``, ``events_processed`` and ``run_ahead_steps`` of all
  differential configs.

Plus the parity that ties the event kernel to the step loop: heap pops
plus run-ahead steps equal the step loop's iterations.
"""

import hashlib
import json

import pytest

from repro.models.config import GPT2
from repro.models.workload import Workload
from repro.serving.cluster import AutoscalerConfig, EventKind, ServingCluster
from repro.serving.workload_gen import TimedRequest
from tests.serving.cluster.test_kernel_differential import CONFIGS

CONTROL_INTERVAL_S = 0.25


def _seed_trace():
    """Bursts of equal-time arrivals: 8 at t=0, then bursts of 1-5 every
    0.0625 s (an exact binary fraction, so every fourth burst lands on a
    control tick)."""
    trace = [TimedRequest(i, Workload(32 + 16 * (i % 3), 4 + (i % 5)), 0.0)
             for i in range(8)]
    for burst in range(1, 40):
        time_s = burst * 0.0625
        for _ in range(1 + burst % 5):
            i = len(trace)
            trace.append(TimedRequest(
                i, Workload(16 + 16 * (i % 4), 2 + (i % 7)), time_s))
    return trace


def _tick_times(until_s):
    """Control-tick instants, accumulated exactly as the kernel does."""
    times, tick = [], 0.0
    while tick <= until_s:
        times.append(tick)
        tick += CONTROL_INTERVAL_S
    return times


def _cluster(autoscaled, kernel="event"):
    kwargs = dict(initial_replicas=2, router="least_queue", kernel=kernel)
    if autoscaled:
        kwargs["autoscaler"] = AutoscalerConfig(
            min_replicas=1, max_replicas=3, warmup_s=0.1,
            control_interval_s=CONTROL_INTERVAL_S)
    cluster = ServingCluster(GPT2, **kwargs)
    cluster.record_events = True
    return cluster


def burst_trace_on_ties():
    """The seed trace plus one arrival at each of the first twelve STEP
    instants a run of the seed trace popped, and one at each tick
    instant.  The added arrivals reshape the run after the first of
    them, so :meth:`TestArrivalRunAhead.test_trace_exercises_ties`
    checks that ties with steps and ticks really occur."""
    seed = _seed_trace()
    cluster = _cluster(autoscaled=True)
    cluster.run(seed)
    steps = [event.time_s for event in cluster.last_event_log
             if event.kind is EventKind.STEP][:12]
    extra = sorted(set(steps) | set(_tick_times(2.5)))
    trace = list(seed)
    for time_s in extra:
        i = len(trace)
        trace.append(TimedRequest(i, Workload(24, 3), time_s))
    return trace


def log_rows(log):
    """The kernel log as JSON-ready rows (payloads by identity)."""
    rows = []
    for event in log:
        payload = event.payload
        if event.kind is EventKind.STEP:
            payload = payload.device_id
        elif payload is not None:
            payload = repr(payload)
        rows.append([repr(event.time_s), int(event.kind), event.tie,
                     event.seq, payload])
    return rows


def digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


# Fleets whose popped-event log of burst_trace_on_ties() is pinned in
# tests/pins.json (``kernel_log/<fleet>``), recorded on the kernel that
# pushed and popped every arrival.
FLEETS = ("autoscaled", "fixed")

# Per differential config, recorded on the same kernel: the
# ``event_counts`` tallies in EventKind order (ARRIVAL, TRANSFER_LANDED,
# CONTROL_TICK, STEP, DRAIN_COMPLETE, FAULT), then ``events_processed``
# and ``run_ahead_steps``.  The three ``prefix_affinity`` entries were
# re-recorded when a replica began running ahead past arrivals pinned to
# other replicas: fewer STEP pops, the same popped + run-ahead sum.
# ``prefix_affinity_autoscaled_crash`` was re-recorded again when crash
# retries kept their prefix group and followed its pin.
EVENT_TALLIES = {
    "autoscaled_queue_only": (100, 0, 35, 143, 0, 0, 278, 1000),
    "autoscaled_slo_flash_crowd": (150, 0, 49, 487, 1, 0, 686, 2262),
    "disagg_autoscaled": (150, 150, 27, 2126, 1, 0, 2453, 0),
    "disagg_basic": (100, 100, 0, 2942, 0, 0, 3142, 0),
    "disagg_decode_least_queue": (70, 70, 0, 828, 0, 0, 968, 0),
    "disagg_kv_transfer_aware": (90, 90, 0, 935, 0, 0, 1115, 0),
    "disagg_streamed_kv": (80, 320, 0, 1155, 0, 0, 1555, 0),
    "disagg_streamed_stalling": (60, 360, 0, 945, 0, 0, 1365, 0),
    "faulted_autoscaled_replacement": (100, 0, 35, 172, 0, 1, 308, 1004),
    "faulted_disagg_kvlink": (80, 166, 0, 893, 0, 3, 1142, 0),
    "faulted_fixed_crash_slow": (90, 0, 0, 91, 0, 3, 184, 1022),
    "fixed_least_queue": (120, 0, 0, 192, 0, 0, 312, 1057),
    "fixed_round_robin": (90, 0, 0, 127, 0, 0, 217, 845),
    "hybrid_prefill_capped": (90, 0, 0, 70, 0, 0, 160, 244),
    "kv_pressure_preempting": (80, 0, 0, 64, 0, 0, 144, 750),
    "least_kv_pressure": (80, 0, 0, 90, 0, 0, 170, 923),
    "multi_turn_prefix_cached": (32, 0, 0, 45, 0, 0, 77, 443),
    "prefix_affinity_autoscaled_crash": (64, 0, 23, 126, 1, 1, 214, 650),
    "prefix_affinity_cached": (64, 0, 0, 64, 0, 0, 128, 338),
    "score_class_mix": (100, 0, 0, 93, 0, 0, 193, 970),
    "score_preempting_class_autoscaled": (90, 0, 25, 125, 0, 0, 240, 835),
    "single_replica": (60, 0, 0, 38, 0, 0, 98, 635),
    "tool_use_fixed": (24, 0, 0, 38, 0, 0, 62, 204),
}


class TestArrivalRunAhead:
    @pytest.fixture(scope="class")
    def trace(self):
        return burst_trace_on_ties()

    @pytest.mark.parametrize("fleet", FLEETS)
    def test_kernel_log_unchanged(self, trace, fleet, pin):
        cluster = _cluster(autoscaled=fleet == "autoscaled")
        cluster.run(trace)
        pin(f"kernel_log/{fleet}", digest(log_rows(cluster.last_event_log)))

    @pytest.mark.parametrize("fleet", FLEETS)
    def test_parity_with_step_loop(self, trace, fleet):
        event = _cluster(autoscaled=fleet == "autoscaled")
        event_report = event.run(trace)
        step = _cluster(autoscaled=fleet == "autoscaled", kernel="step")
        step_report = step.run(trace)
        assert json.dumps(event_report.to_dict(), sort_keys=True) \
            == json.dumps(step_report.to_dict(), sort_keys=True)
        assert event.events_processed + event.run_ahead_steps \
            == step.iterations
        assert event.event_counts["ARRIVAL"] == len(trace)

    def test_trace_exercises_ties(self, trace):
        """Regime check: the trace must keep arrivals sharing an instant
        with other arrivals, with control ticks and with engine steps."""
        cluster = _cluster(autoscaled=True)
        cluster.run(trace)
        log = cluster.last_event_log
        times = {}
        for event in log:
            times.setdefault(event.kind, []).append(event.time_s)
        arrivals = times[EventKind.ARRIVAL]
        assert len(arrivals) - len(set(arrivals)) >= 20
        assert len(set(arrivals) & set(times[EventKind.CONTROL_TICK])) >= 5
        assert set(arrivals) & set(times[EventKind.STEP])


class TestEventTallies:
    def test_every_config_has_recorded_tallies(self):
        assert set(EVENT_TALLIES) == set(CONFIGS)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_tallies_unchanged(self, name):
        kwargs, trace = CONFIGS[name]
        cluster = ServingCluster(GPT2, **kwargs)
        cluster.run(trace)
        *counts, popped, ahead = EVENT_TALLIES[name]
        assert cluster.event_counts == {
            kind.name: count for kind, count in zip(EventKind, counts)}
        assert cluster.events_processed == popped
        assert cluster.run_ahead_steps == ahead
        step = ServingCluster(GPT2, kernel="step", **kwargs)
        step.run(trace)
        assert popped + ahead == step.iterations
