"""Serving throughput: continuous batching vs the sequential sweep baseline.

Not a paper artefact — the paper (conf_micro_YeC25) measures single-request
latency only.  This benchmark records what the serving tier built on the same
analytical model adds: aggregate tokens/s of a fixed continuous-batching
fleet (1 and 2 devices) against `InferenceSession.throughput_sweep`, which
serves the identical request set one at a time.  The win comes from the model's
cost structure — each engine step streams the layer weights from HBM once
regardless of batch size — not from a tuned constant.
"""

import os

import pytest

import serving_artifact
from repro.eval.serving import compare_with_sequential, run_sequential_baseline
from repro.models.config import GPT2
from repro.serving import SchedulerConfig, ServingCluster, poisson_trace


# REPRO_BENCH_FAST=1 (the CI smoke job) shrinks the trace; the asserted
# comparisons are structural and hold at both sizes.
FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
NUM_REQUESTS = 24 if FAST else 64
ARRIVAL_RATE_HZ = 16.0


@pytest.fixture(scope="module")
def trace():
    return poisson_trace(NUM_REQUESTS, ARRIVAL_RATE_HZ, seed=0)


@pytest.fixture(scope="module")
def baseline(trace):
    return run_sequential_baseline(GPT2, trace)


@pytest.mark.benchmark(group="serving")
def test_continuous_batching_beats_sequential_sweep(benchmark, trace, baseline):
    cluster = ServingCluster(
        GPT2, initial_replicas=1,
        scheduler_config=SchedulerConfig(max_batch_size=8))
    report = benchmark(cluster.run, trace)
    comparison = compare_with_sequential(report, baseline)
    print("\n" + report.format())
    print(comparison.format())
    serving_artifact.record("throughput_1dev", report,
                            speedup_vs_sequential=comparison.speedup)

    assert report.completed == NUM_REQUESTS
    # Even a single device must beat the one-request-at-a-time sweep: the
    # batch amortises the per-layer weight streaming that dominates decode.
    assert comparison.speedup > 1.5


@pytest.mark.benchmark(group="serving")
def test_sharding_scales_aggregate_throughput(benchmark, trace, baseline):
    cluster = ServingCluster(
        GPT2, initial_replicas=2,
        scheduler_config=SchedulerConfig(max_batch_size=8))
    report = benchmark(cluster.run, trace)
    comparison = compare_with_sequential(report, baseline)
    print("\n" + report.format())
    print(comparison.format())
    serving_artifact.record("throughput_2dev", report,
                            speedup_vs_sequential=comparison.speedup)

    assert report.completed == NUM_REQUESTS
    assert comparison.speedup > 2.0
    # Both shards carry traffic.
    assert all(replica["requests_completed"] > 0
               for replica in report.to_dict()["replicas"])


@pytest.mark.benchmark(group="serving")
def test_batching_headroom_over_batch_of_one(benchmark, trace):
    """Aggregate tokens/s with batch=8 vs batch=1 on identical traffic."""
    batched = ServingCluster(
        GPT2, scheduler_config=SchedulerConfig(max_batch_size=8))
    unbatched = ServingCluster(
        GPT2, scheduler_config=SchedulerConfig(max_batch_size=1))
    batched_report = benchmark(batched.run, trace)
    unbatched_report = unbatched.run(trace)
    ratio = (batched_report.fleet_tokens_per_s
             / unbatched_report.fleet_tokens_per_s)
    print(f"\nbatch=8: {batched_report.fleet_tokens_per_s:.1f} tok/s, "
          f"batch=1: {unbatched_report.fleet_tokens_per_s:.1f} tok/s "
          f"({ratio:.1f}x)")
    assert ratio > 1.5
