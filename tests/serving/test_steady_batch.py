"""Steady decode batches must be invisible in every result.

A :class:`DeviceWorker` whose last planned step ran an unchanged decode-
only batch advances it without planning and settles the residents'
counters once (see ``DeviceWorker.step``).  This differential sweep runs
each seeded config twice: as shipped, and as a reference run that drops
the steady batch before every ``step()`` so each step is planned, which
is the engine without the shortcut.  The per-device stats, each request's
outcome and the tracer's spans must be equal.  Further tests check that
a crash settles the counters, that a reordering admission policy is
consulted on every step it would be, and that steady steps engage on a
decode-heavy fleet but never on a prefill-only worker.
"""

import dataclasses

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
    """Make every ``step()`` plan, by dropping the steady batch first."""
    step = DeviceWorker.step

    def planned_step(self):
        self._steady = None
        return step(self)

    def enable():
        monkeypatch.setattr(DeviceWorker, "step", planned_step)

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
    """Run and return {prefill_only: (planned steps, steps)}."""
    planning = [False]
    counts = {}
    plan_step = ContinuousBatchingScheduler.plan_step
    step = DeviceWorker.step

    def counted_plan(self, *args, **kwargs):
        planning[0] = True
        return plan_step(self, *args, **kwargs)

    def counted_step(self):
        planning[0] = False
        progressed = step(self)
        if progressed:
            planned, steps = counts.get(self.prefill_only, (0, 0))
            counts[self.prefill_only] = (planned + planning[0], steps + 1)
        return progressed

    monkeypatch.setattr(ContinuousBatchingScheduler, "plan_step",
                        counted_plan)
    monkeypatch.setattr(DeviceWorker, "step", counted_step)
    report = cluster.run(trace)
    assert report.completed == len(trace)
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
