"""Prefix caching on a shared-prompt trace: throughput and TTFT, on vs off.

Not a paper artefact — the paper (conf_micro_YeC25) serves one request at a
time and never revisits a prompt.  This benchmark drives the shared-prompt
workload prefix caching exists for (every request opens with the same
system-prompt-style prefix) through one device twice — identical trace,
identical KV pool, cache on vs off — and asserts the acceptance bar of the
policy/prefix-cache refactor: with the cache on, followers skip the cached
prefill, so aggregate throughput must exceed 1.2x the uncached run and mean
TTFT must drop.

Reproduce with::

    PYTHONPATH=src python -m pytest benchmarks/test_serving_prefix_cache.py -q -s
"""

import os

import pytest

import serving_artifact
from repro.models.config import GPT2
from repro.serving import (
    KVCacheConfig,
    SchedulerConfig,
    ServingCluster,
    shared_prefix_trace,
)

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
NUM_REQUESTS = 8 if FAST else 16
PREFIX_LEN = 192
UNIQUE_LEN = 16
OUTPUT_LEN = 32
SCHEDULER = SchedulerConfig(max_batch_size=4, token_budget=256)
# Ample pool: the comparison isolates prefill skipping, not preemption.
CAPACITY_MB = 512.0


@pytest.fixture(scope="module")
def trace():
    return shared_prefix_trace(NUM_REQUESTS, prefix_len=PREFIX_LEN,
                               unique_len=UNIQUE_LEN, output_len=OUTPUT_LEN)


def run(trace, prefix_cache: bool):
    kv = KVCacheConfig.from_capacity_mb(CAPACITY_MB,
                                        enable_prefix_cache=prefix_cache)
    return ServingCluster(GPT2, kv_config=kv,
                          scheduler_config=SCHEDULER).run(trace)


@pytest.mark.benchmark(group="serving-prefix")
def test_prefix_cache_speeds_up_shared_prompt_trace(benchmark, trace):
    cluster = ServingCluster(
        GPT2,
        kv_config=KVCacheConfig.from_capacity_mb(CAPACITY_MB,
                                                 enable_prefix_cache=True),
        scheduler_config=SCHEDULER)
    cached = benchmark(cluster.run, trace)
    uncached = run(trace, prefix_cache=False)
    speedup = cached.fleet_tokens_per_s / uncached.fleet_tokens_per_s

    print(f"\nshared-prefix trace ({NUM_REQUESTS} requests, "
          f"[{PREFIX_LEN}+{UNIQUE_LEN}:{OUTPUT_LEN}]):")
    print(f"  prefix cache off: {uncached.fleet_tokens_per_s:8.1f} tok/s, "
          f"ttft mean {uncached.ttft.mean * 1e3:8.1f} ms")
    print(f"  prefix cache on:  {cached.fleet_tokens_per_s:8.1f} tok/s, "
          f"ttft mean {cached.ttft.mean * 1e3:8.1f} ms "
          f"({speedup:.1f}x, hit rate {cached.prefix_hit_rate * 100:.0f}%)")
    serving_artifact.record("prefix_cache_on", cached,
                            speedup_vs_uncached=speedup)
    serving_artifact.record("prefix_cache_off", uncached)

    assert cached.completed == uncached.completed == NUM_REQUESTS
    assert uncached.prefix_hit_rate == 0.0
    # The refactor's acceptance bar: >1.2x throughput and lower mean TTFT.
    assert speedup > 1.2
    assert cached.ttft.mean < uncached.ttft.mean


@pytest.mark.benchmark(group="serving-prefix")
def test_prefix_cache_bookkeeping_consistent(benchmark, trace):
    report = benchmark(lambda: run(trace, prefix_cache=True))
    # One device: its replica report carries the prefix-cache counters.
    cached = report.replica_reports[0]

    # One group: the leader creates the prefix blocks once; every follower
    # reuses all of them.
    blocks = PREFIX_LEN // 16
    assert cached.shared_kv_blocks_created == blocks
    assert cached.shared_kv_blocks_reused \
        == (NUM_REQUESTS - 1) * blocks
    # Hit rate: followers skip the whole shared prefix of their prompts.
    expected_reused = (NUM_REQUESTS - 1) * PREFIX_LEN
    assert cached.prefix_tokens_reused == expected_reused
    total_prompt = NUM_REQUESTS * (PREFIX_LEN + UNIQUE_LEN)
    assert cached.prefix_hit_rate == pytest.approx(
        expected_reused / total_prompt)
    assert cached.preemptions == 0
