"""Throughput vs KV-cache capacity: the memory-pressure serving curve.

Not a paper artefact — the paper (conf_micro_YeC25) measures single-request
latency and its host runtime never faces KV contention.  This benchmark
sweeps the per-device KV block pool over the same Poisson trace and records
the curve the KV manager produces: at ample capacity the device matches the
capacity-oblivious PR 1 engine exactly (0 preemptions, identical tokens/s);
as the pool shrinks below the working set, watermark-driven preemption +
recompute eat into throughput but every request still completes.

Reproduce with::

    PYTHONPATH=src python -m pytest benchmarks/test_serving_kv_capacity.py -q -s
"""

import os

import pytest

import serving_artifact
from repro.eval.serving import run_sweep
from repro.models.config import GPT2
from repro.serving import (
    KVCacheConfig,
    SchedulerConfig,
    ServingCluster,
    poisson_trace,
)

# REPRO_BENCH_FAST=1 (the CI smoke job) shrinks the trace; the regime
# assertions are structural and hold at both sizes.
FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
NUM_REQUESTS = 16 if FAST else 32
ARRIVAL_RATE_HZ = 50.0
SCHEDULER = SchedulerConfig(max_batch_size=8, token_budget=256)

# GPT-2 KV is ~49 KB/token at A8; [128:128] requests hold ~12.6 MB each, so
# a batch of 8 wants ~100 MB: 512 MB is ample, 24 MB is heavy pressure.
CAPACITIES_MB = [None, 512.0, 96.0, 48.0, 24.0]


def capacity_sweep(trace, capacities_mb):
    """One point per capacity; ``None`` is the unmanaged device."""
    variants = {"unmanaged" if mb is None else f"{mb:.1f} MB": (
        {} if mb is None else dict(kv_config=KVCacheConfig.from_capacity_mb(
            mb, high_watermark=0.90, low_watermark=0.70)))
        for mb in capacities_mb}
    return run_sweep(GPT2, trace, variants, scheduler_config=SCHEDULER)


def tok_s(point):
    return point.report.fleet_tokens_per_s


@pytest.fixture(scope="module")
def trace():
    return poisson_trace(NUM_REQUESTS, ARRIVAL_RATE_HZ, seed=0,
                         input_choices=(64, 128), output_choices=(64, 128))


@pytest.fixture(scope="module")
def curve(trace):
    return capacity_sweep(trace, CAPACITIES_MB)


@pytest.mark.benchmark(group="serving-kv")
def test_throughput_vs_capacity_curve(benchmark, trace, curve):
    unmanaged_cluster = ServingCluster(GPT2, scheduler_config=SCHEDULER)
    benchmark(unmanaged_cluster.run, trace)

    print("\nthroughput vs KV capacity (GPT-2, 1 device):")
    for point in curve:
        print("  " + point.format())

    unmanaged, ample, tight = curve[0], curve[1], curve[-1]
    serving_artifact.record("kv_capacity_ample", ample.report,
                            capacity_mb=CAPACITIES_MB[1])
    serving_artifact.record("kv_capacity_tight", tight.report,
                            capacity_mb=CAPACITIES_MB[-1])

    # Ample regime: the managed engine is indistinguishable from PR 1.
    assert ample.report.preemptions == 0
    assert ample.report.completed == NUM_REQUESTS
    assert tok_s(ample) == pytest.approx(tok_s(unmanaged))

    # Overflow regime: completes via preemption + recompute, paying for it.
    assert tight.report.preemptions >= 1
    assert tight.report.completed == NUM_REQUESTS
    assert tok_s(tight) < tok_s(ample)

    # The curve is a curve: shrinking capacity never helps throughput.
    managed = curve[1:]
    for wider, narrower in zip(managed, managed[1:]):
        assert tok_s(narrower) <= tok_s(wider) * 1.001


@pytest.mark.benchmark(group="serving-kv")
def test_preemption_onset_splits_the_curve(benchmark, trace, curve):
    """Preemptions appear exactly where capacity drops below the working
    set, and every pressured point pays for them in throughput.  (The raw
    preemption *count* is not monotone in capacity: a tighter pool admits
    fewer residents, so there is less to evict — each eviction just costs
    more recompute, which the throughput ordering already captures.)"""
    benchmark(lambda: capacity_sweep(trace, [24.0]))
    managed = curve[1:]
    preemptions = [point.report.preemptions for point in managed]
    print(f"\npreemptions along the curve {CAPACITIES_MB[1:]}: {preemptions}")
    ample_tok_s = tok_s(managed[0])
    onset_seen = False
    for point in managed:
        if point.report.preemptions:
            onset_seen = True
            assert tok_s(point) < ample_tok_s
        else:
            assert not onset_seen, \
                "pressure-free point below a pressured capacity"
            assert tok_s(point) == pytest.approx(ample_tok_s)
    assert onset_seen, "sweep never reached the pressure regime"
    assert all(0.0 < p.report.peak_kv_utilization <= 1.0 for p in managed)
