"""Steady decode batches must be invisible in every result.

A :class:`DeviceWorker` whose last planned step ran an unchanged decode-
only batch advances it a whole segment per ``advance()`` call without
planning, crossing KV block boundaries on free blocks, and settles the
residents' counters once (see ``DeviceWorker.advance``).  This
differential sweep runs each seeded config twice: as shipped, and as a
reference run in which ``advance()`` takes no step and the steady batch is
dropped before every ``step()`` so each step is planned, which is the
engine without the shortcut.  The per-device stats, each request's
outcome and the tracer's spans must be equal.  Further tests check that
the block-crossing configs end segments the way their names say, that
``advance()`` honours its horizon and step limit, that a crash settles
the counters, that a reordering admission policy is consulted on every
step it would be, and that steady steps engage on decode-heavy fleets
but never on a prefill-only worker.
"""

import dataclasses
import math

import pytest

import repro.serving.cluster.cluster as cluster_module
import repro.serving.engine as engine_module
from repro.models.config import GPT2
from repro.serving import KVCacheConfig, SchedulerConfig, ServingEngine
from repro.serving.cluster import (
    DisaggregationConfig,
    FaultPlan,
    ReplicaCrash,
    ServingCluster,
    SlowNode,
)
from repro.runtime.session import InferenceSession
from repro.serving.engine import DeviceWorker
from repro.serving.kv_manager import KVBlockManager
from repro.serving.policies.admission import ScoreAdmission
from repro.serving.policies.preemption import resolve_preemption_policy
from repro.serving.request import requests_from_trace
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.telemetry import Tracer
from repro.serving.workload_gen import (
    multi_turn_trace,
    poisson_trace,
    shared_prefix_trace,
)

PER_TOKEN = GPT2.kv_cache_bytes_per_token()


def kv_blocks(blocks, block_size=16, **kwargs):
    """A pool of exactly ``blocks`` blocks."""
    return KVCacheConfig(capacity_bytes=blocks * block_size * PER_TOKEN,
                         block_size=block_size, **kwargs)


def _poisson(seed, count=36, rate=30.0, inputs=(16, 64), outputs=(24, 48),
             **kwargs):
    return poisson_trace(count, rate, seed=seed, input_choices=inputs,
                         output_choices=outputs, **kwargs)


# name -> seed -> (runner kwargs, trace).  ``engine`` marks a
# ServingEngine run; every other config runs a ServingCluster.
CONFIGS = {
    "no_kv": lambda seed: (
        dict(initial_replicas=2, router="least_queue",
             scheduler_config=SchedulerConfig(max_batch_size=8)),
        _poisson(seed)),
    "engine_two_devices": lambda seed: (
        dict(engine=True, num_devices=2,
             scheduler_config=SchedulerConfig(max_batch_size=6)),
        _poisson(seed, rate=60.0)),
    "kv_watermark_preempting": lambda seed: (
        dict(initial_replicas=2, router="least_kv_pressure",
             kv_config=kv_blocks(40, high_watermark=0.85,
                                 low_watermark=0.6),
             scheduler_config=SchedulerConfig(max_batch_size=8)),
        _poisson(seed, rate=40.0, inputs=(64, 128), outputs=(32, 64))),
    "prefix_cache": lambda seed: (
        dict(initial_replicas=2, router="prefix_affinity",
             kv_config=kv_blocks(256, enable_prefix_cache=True)),
        shared_prefix_trace(32, prefix_len=48, unique_len=8,
                            output_len=24 + seed % 17, interval_s=0.02,
                            num_groups=3) if seed % 2 else
        multi_turn_trace(6, 3, seed=seed, session_rate_hz=4.0,
                         think_time_s=0.3, turn_input_choices=(16, 32),
                         output_choices=(16, 40))),
    "score_admission": lambda seed: (
        dict(initial_replicas=2, router="score",
             scheduler_config=SchedulerConfig(admission="score",
                                              max_batch_size=4),
             preemption="lowest_score", kv_config=kv_blocks(64)),
        _poisson(seed, rate=45.0,
                 slo_class_mix="interactive=1,standard=2,batch=1")),
    "prefill_token_cap": lambda seed: (
        dict(initial_replicas=2, router="least_queue",
             scheduler_config=SchedulerConfig(prefill_token_cap=24)),
        _poisson(seed, inputs=(32, 96))),
    "slow_node_and_crash": lambda seed: (
        dict(initial_replicas=3, router="least_queue",
             fault_plan=FaultPlan(events=(
                 SlowNode(time_s=0.1, replica_id=0, scale=2.5,
                          duration_s=0.6),
                 ReplicaCrash(time_s=0.5 + 0.02 * (seed % 7),
                              replica_id=1)))),
        _poisson(seed, rate=50.0)),
    "traced": lambda seed: (
        dict(initial_replicas=2, router="round_robin", tracer=True,
             kv_config=kv_blocks(96)),
        _poisson(seed, rate=40.0)),
    # Segments that cross block boundaries.  Each config ends segments
    # the way its name says; test_segments_end_as_named checks that.
    "block4_prefix_reclaim": lambda seed: (
        dict(initial_replicas=1, router="prefix_affinity",
             kv_config=kv_blocks(60, block_size=4,
                                 enable_prefix_cache=True),
             scheduler_config=SchedulerConfig(max_batch_size=6)),
        multi_turn_trace(8, 3, seed=seed, session_rate_hz=8.0,
                         think_time_s=0.2, turn_input_choices=(16, 24),
                         output_choices=(24, 48))),
    "claim_past_watermark": lambda seed: (
        dict(initial_replicas=1, router="least_queue",
             kv_config=kv_blocks(48, block_size=8, high_watermark=0.9,
                                 low_watermark=0.7),
             scheduler_config=SchedulerConfig(max_batch_size=6)),
        _poisson(seed, count=24, rate=40.0, inputs=(16, 32),
                 outputs=(48, 96))),
    "pressure_cycle": lambda seed: (
        dict(initial_replicas=1, router="least_queue",
             kv_config=kv_blocks(40, block_size=8, high_watermark=1.0,
                                 low_watermark=0.5),
             scheduler_config=SchedulerConfig(max_batch_size=4)),
        _poisson(seed, count=24, rate=20.0, inputs=(16, 48),
                 outputs=(32, 96))),
    "long_decode_segments": lambda seed: (
        dict(initial_replicas=2, router="round_robin", tracer=True,
             kv_config=kv_blocks(512, block_size=8),
             scheduler_config=SchedulerConfig(max_batch_size=8)),
        _poisson(seed, count=24, rate=20.0, inputs=(16, 32),
                 outputs=(192, 320))),
    "streamed_handoff": lambda seed: (
        dict(router="least_queue", tracer=True,
             disaggregation=DisaggregationConfig(prefill_replicas=1,
                                                 decode_replicas=2,
                                                 kv_transfer_gbs=0.02,
                                                 kv_stream_chunks=4),
             kv_config=kv_blocks(192)),
        _poisson(seed, inputs=(32, 96))),
}

SEEDS_PER_CONFIG = 12
CASES = [(name, seed) for name in CONFIGS
         for seed in range(SEEDS_PER_CONFIG)]


def _run(kwargs, trace):
    """Run one config; returns (device stats, request outcomes, spans)."""
    kwargs = dict(kwargs)
    tracer = Tracer() if kwargs.pop("tracer", False) else None
    if kwargs.pop("engine", False):
        module = engine_module
        runner = ServingEngine(GPT2, tracer=tracer, **kwargs)
    else:
        module = cluster_module
        runner = ServingCluster(GPT2, tracer=tracer, **kwargs)
    # Observe the request list the run builds: the requests carry the
    # per-request outcomes the report only summarises.
    captured = []
    original = module.requests_from_trace

    def capture(trace_arg):
        captured.append(original(trace_arg))
        return captured[-1]

    module.requests_from_trace = capture
    try:
        report = runner.run(trace)
    finally:
        module.requests_from_trace = original
    reports = getattr(report, "replica_reports", [report])
    devices = [dataclasses.asdict(device) for replica in reports
               for device in replica.devices]
    outcomes = [(r.request_id, r.first_token_s, r.finish_s,
                 r.tokens_emitted, r.preemptions) for r in captured[0]]
    spans = tracer.sorted_tuples() if tracer is not None else None
    return devices, outcomes, spans


@pytest.fixture
def planned_every_step(monkeypatch):
    """Make every ``step()`` plan, by dropping the steady batch first, and
    make ``advance()`` take no step, so no segment runs either."""
    step = DeviceWorker.step

    def planned_step(self):
        self._steady = None
        return step(self)

    def enable():
        monkeypatch.setattr(DeviceWorker, "step", planned_step)
        monkeypatch.setattr(DeviceWorker, "advance",
                            lambda self, horizon, limit=None: 0)

    return enable


@pytest.mark.parametrize("name,seed", CASES,
                         ids=[f"{name}-{seed}" for name, seed in CASES])
def test_steady_matches_planned(name, seed, planned_every_step):
    kwargs, trace = CONFIGS[name](seed)
    steady = _run(kwargs, trace)
    planned_every_step()
    planned = _run(kwargs, trace)
    assert steady[0] == planned[0]
    assert steady[1] == planned[1]
    assert steady[2] == planned[2]


def _crash_after(steps, planned):
    """Step a fresh worker ``steps`` times, crash it and return each lost
    request's counters."""
    worker = DeviceWorker(0, InferenceSession(GPT2),
                          SchedulerConfig(max_batch_size=4),
                          resolve_preemption_policy("youngest"))
    trace = poisson_trace(6, 100.0, seed=2, input_choices=(16,),
                          output_choices=(64,))
    for request in requests_from_trace(trace):
        worker.submit(request)
    for _ in range(steps):
        if planned:
            worker._steady = None
        worker.step()
    steady = worker._steady
    lost = worker.crash()
    return steady, [(r.request_id, r.active.tokens_generated,
                     r.tokens_emitted) for r in lost]


def test_crash_settles_the_steady_batch():
    steady, lost = _crash_after(30, planned=False)
    assert steady is not None and steady.k > 0
    assert lost == _crash_after(30, planned=True)[1]


class _RecordingScore(ScoreAdmission):
    """Score admission that logs the clock of every reorder."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def order(self, waiting, now=0.0):
        self.calls.append((now, len(waiting)))
        return super().order(waiting, now)


def test_reordering_policy_sees_every_planned_reorder(planned_every_step):
    trace = poisson_trace(24, 200.0, seed=8, input_choices=(16, 32),
                          output_choices=(32, 64))
    logs = []
    for planned in (False, True):
        if planned:
            planned_every_step()
        policy = _RecordingScore()
        ServingEngine(GPT2, scheduler_config=SchedulerConfig(
            max_batch_size=3, admission=policy)).run(trace)
        logs.append(policy.calls)
    assert logs[0] and logs[0] == logs[1]


def _planned_share(monkeypatch, cluster, trace):
    """Run and return {prefill_only: (planned steps, steps)}.

    A step is planned when its ``step()`` call ran ``plan_step``; steps
    are read from ``worker.steps``, because ``advance()`` runs most steady
    steps without a ``step()`` call."""
    planning = [False]
    planned_steps = {}
    plan_step = ContinuousBatchingScheduler.plan_step
    step = DeviceWorker.step

    def counted_plan(self, *args, **kwargs):
        planning[0] = True
        return plan_step(self, *args, **kwargs)

    def counted_step(self):
        planning[0] = False
        progressed = step(self)
        planned_steps[self] = planned_steps.get(self, 0) + planning[0]
        return progressed

    monkeypatch.setattr(ContinuousBatchingScheduler, "plan_step",
                        counted_plan)
    monkeypatch.setattr(DeviceWorker, "step", counted_step)
    report = cluster.run(trace)
    assert report.completed == len(trace)
    counts = {}
    for worker, planned in planned_steps.items():
        total_planned, steps = counts.get(worker.prefill_only, (0, 0))
        counts[worker.prefill_only] = (total_planned + planned,
                                       steps + worker.steps)
    return counts


def test_steady_steps_engage_on_decode_heavy_fleet(monkeypatch):
    cluster = ServingCluster(GPT2, initial_replicas=2, router="round_robin",
                             scheduler_config=SchedulerConfig(
                                 max_batch_size=16))
    trace = poisson_trace(32, 200.0, seed=3, input_choices=(32, 64),
                          output_choices=(128,))
    planned, steps = _planned_share(monkeypatch, cluster, trace)[False]
    assert steps > 200
    assert planned < 0.2 * steps


def test_prefill_only_worker_plans_every_step(monkeypatch):
    cluster = ServingCluster(
        GPT2, router="least_queue",
        disaggregation=DisaggregationConfig(prefill_replicas=1,
                                            decode_replicas=1),
        kv_config=kv_blocks(256))
    trace = poisson_trace(24, 40.0, seed=5, input_choices=(32, 64),
                          output_choices=(64,))
    counts = _planned_share(monkeypatch, cluster, trace)
    planned, steps = counts[True]
    assert steps > 0 and planned == steps
    # The decode replica does go steady, so the split is real.
    decode_planned, decode_steps = counts[False]
    assert decode_planned < decode_steps


def _stop_reason(worker, horizon, limit, taken):
    """Why an ``advance()`` call returned, read off the worker after it,
    in the order ``advance`` tests its stop conditions."""
    steady = worker._steady
    if steady is None:
        return "finish" if taken else "not_steady"
    if taken >= limit:
        return "limit"
    if worker.clock >= horizon:
        return "horizon"
    if worker.waiting and (
            len(worker.running) < worker.scheduler.config.max_batch_size
            or worker._admission_reorders):
        return "admission"
    if worker.pending and worker.pending[0].enqueue_s <= worker.clock:
        return "arrival"
    manager = worker.manager
    if len(steady.decodes) > 1 \
            and manager.utilization > worker.kv_config.high_watermark:
        return "watermark"
    crossing = len(steady.due[steady.k])
    assert steady.k == steady.claim_at and crossing > manager.free_blocks
    if crossing <= manager.free_blocks + manager.reclaimable_blocks:
        return "reclaim"
    return "exhausted"


def _segment_log(monkeypatch, name, seeds):
    """Run ``name`` on ``seeds`` and log each ``advance()`` call as
    ``(stop reason, blocks claimed, pressure flag before, pressure flag
    after, steps taken)``.  Also returns, per watermark stop after a step,
    whether the worker's next ``step()`` preempted, and how often the
    pool's pressure flag was set and cleared."""
    log = dict(calls=[], preempted_after_watermark=[], pressure_sets=0,
               pressure_clears=0)
    watch = {}
    claims = [0]
    advance = DeviceWorker.advance
    step = DeviceWorker.step
    claim_one_each = KVBlockManager.claim_one_each
    mark_pressure = KVBlockManager.mark_pressure
    refresh_pressure = KVBlockManager.refresh_pressure

    def counted_claim(self, request_ids):
        claimed = claim_one_each(self, request_ids)
        claims[0] += claimed * len(request_ids)
        return claimed

    def counted_mark(self):
        log["pressure_sets"] += not self._pressured
        mark_pressure(self)

    def counted_refresh(self):
        pressured = self._pressured
        refresh_pressure(self)
        log["pressure_clears"] += pressured and not self._pressured

    def logged_advance(self, horizon, limit=math.inf):
        manager = self.manager
        pressured = manager is not None and manager._pressured
        claims_before = claims[0]
        taken = advance(self, horizon, limit)
        reason = _stop_reason(self, horizon, limit, taken)
        log["calls"].append((reason, claims[0] - claims_before, pressured,
                             manager is not None and manager._pressured,
                             taken))
        if reason == "watermark" and taken:
            watch[self] = self.preempt_count
        return taken

    def logged_step(self):
        before = watch.pop(self, None)
        progressed = step(self)
        if before is not None:
            log["preempted_after_watermark"].append(
                self.preempt_count > before)
        return progressed

    monkeypatch.setattr(KVBlockManager, "claim_one_each", counted_claim)
    monkeypatch.setattr(KVBlockManager, "mark_pressure", counted_mark)
    monkeypatch.setattr(KVBlockManager, "refresh_pressure", counted_refresh)
    monkeypatch.setattr(DeviceWorker, "advance", logged_advance)
    monkeypatch.setattr(DeviceWorker, "step", logged_step)
    for seed in seeds:
        _run(*CONFIGS[name](seed))
    return log


@pytest.mark.parametrize("name", ["block4_prefix_reclaim",
                                  "claim_past_watermark", "pressure_cycle",
                                  "long_decode_segments"])
def test_segments_end_as_named(monkeypatch, name):
    log = _segment_log(monkeypatch, name, range(SEEDS_PER_CONFIG))
    calls = log["calls"]
    stops = {reason for reason, *_ in calls}
    # Segments cross block boundaries in every config.
    assert any(claimed for _, claimed, *_ in calls)
    if name == "block4_prefix_reclaim":
        # A boundary claim that needs cached blocks reclaimed ends the
        # segment; the planned step reclaims.
        assert "reclaim" in stops
    elif name == "claim_past_watermark":
        # A claim inside a segment pushes utilization past the high mark:
        # the segment ends and the next step preempts.
        assert any(reason == "watermark" and claimed
                   for reason, claimed, *_ in calls)
        assert log["preempted_after_watermark"]
        assert all(log["preempted_after_watermark"])
    elif name == "pressure_cycle":
        # Boundary claims that would starve end segments; the planned step
        # preempts and sets the pressure flag, which later clears.  The
        # flag is never set while a segment runs: its victim waits in a
        # batch that is no longer full, so admission stays open until a
        # planned step clears the flag.
        assert "exhausted" in stops
        assert log["pressure_sets"] > 0
        assert log["pressure_clears"] == log["pressure_sets"]
        assert not any(before or after
                       for _, _, before, after, _ in calls)
    else:
        # Long decodes with no autoscaler: one segment spans many blocks.
        assert max(claimed for _, claimed, *_ in calls) >= 32


def _steady_worker(kv_config=None, arrivals=(0.0,) * 4, output_len=96):
    """A worker stepped until its batch is steady (four 24-token prompts;
    later ``arrivals`` stay pending until the clock reaches them)."""
    worker = DeviceWorker(0, InferenceSession(GPT2),
                          SchedulerConfig(max_batch_size=4),
                          resolve_preemption_policy("youngest"),
                          kv_config=kv_config)
    trace = poisson_trace(len(arrivals), 1.0, seed=1, input_choices=(24,),
                          output_choices=(output_len,))
    for timed, arrival_s in zip(trace, arrivals):
        worker.submit(requests_from_trace(
            [dataclasses.replace(timed, arrival_s=arrival_s)])[0])
    while worker._steady is None:
        assert worker.step()
    return worker


def _snapshot(worker):
    """Everything a step changes; residents' counters read as settled."""
    steady = worker._steady
    unsettled = {r.request_id: steady.k for r in steady.decodes} \
        if steady is not None else {}
    requests = list(worker.running) + list(worker.waiting)
    return (dataclasses.asdict(worker.device_stats()),
            steady is not None, len(worker.pending),
            sorted((r.request_id,
                    r.active.tokens_generated
                    + unsettled.get(r.request_id, 0),
                    r.tokens_emitted + unsettled.get(r.request_id, 0),
                    r.finish_s) for r in requests))


def test_advance_without_a_steady_batch_takes_no_step():
    worker = DeviceWorker(0, InferenceSession(GPT2), SchedulerConfig(),
                          resolve_preemption_policy("youngest"))
    assert worker.advance(math.inf) == 0
    for request in requests_from_trace(_poisson(1, count=4)):
        worker.submit(request)
    assert worker.advance(math.inf) == 0
    assert worker.step() and worker._steady is None  # a prefill step
    assert worker.advance(math.inf) == 0
    assert worker.steps == 1


@pytest.mark.parametrize("kv_config", [None, kv_blocks(160, block_size=4)],
                         ids=["no_kv", "kv_block4"])
def test_advance_never_starts_a_step_at_or_after_horizon(kv_config):
    worker = _steady_worker(kv_config)
    assert worker.advance(worker.clock) == 0
    reference = _steady_worker(kv_config)
    horizon = worker.clock
    while worker._steady is not None:
        horizon += 0.013
        taken = worker.advance(horizon)
        stepped = 0
        while reference._steady is not None and reference.clock < horizon:
            assert reference.advance(math.inf, 1) == 1
            stepped += 1
        assert taken == stepped
        assert worker.clock == reference.clock
        # Only a settled batch or a reached horizon ends these segments.
        assert worker._steady is None or worker.clock >= horizon
    assert _snapshot(worker) == _snapshot(reference)
    assert worker.running == reference.running == []


@pytest.mark.parametrize("kv_config", [None, kv_blocks(160, block_size=4),
                                       kv_blocks(64, block_size=4)],
                         ids=["no_kv", "kv_block4", "kv_block4_starving"])
def test_advance_limit_one_matches_one_step(kv_config):
    worker = _steady_worker(kv_config, arrivals=(0.0,) * 4 + (0.5,))
    reference = _steady_worker(kv_config, arrivals=(0.0,) * 4 + (0.5,))
    advanced = 0
    while worker.has_work:
        if worker.advance(math.inf, 1) == 1:
            advanced += 1
        else:
            assert worker.step()
        assert reference.step()
        assert _snapshot(worker) == _snapshot(reference)
    assert advanced > 50


def test_a_claim_step_leaves_a_steady_batch():
    worker = _steady_worker(kv_blocks(160, block_size=4))
    manager = worker.manager
    while True:
        # Settle and drop the steady batch, so the next step is planned.
        if worker._steady is not None:
            worker._settle()
        used = manager.used_blocks
        assert worker.step()
        if manager.used_blocks > used:
            break
    assert worker._steady is not None


def test_steady_segments_engage_with_kv_and_prefix_cache(monkeypatch):
    # Steady batches cross block boundaries without a plan, so planning
    # is left to admissions, prefill chunks and finishes.
    cluster = ServingCluster(
        GPT2, initial_replicas=4, router="prefix_affinity",
        scheduler_config=SchedulerConfig(max_batch_size=16),
        kv_config=kv_blocks(1024, enable_prefix_cache=True))
    trace = multi_turn_trace(8, 3, seed=4, session_rate_hz=8.0,
                             think_time_s=0.5, turn_input_choices=(32, 64),
                             output_choices=(192, 256))
    planned, steps = _planned_share(monkeypatch, cluster, trace)[False]
    assert steps > 1000
    assert planned < 0.1 * steps
