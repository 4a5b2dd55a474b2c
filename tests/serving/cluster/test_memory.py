"""Memory grows with requests, not tokens.

A cluster run keeps per-request state (the request objects, their
latency samples) and per-event state (preemptions), but nothing per
engine step: queue and KV occupancy are running summaries.  So making
every request generate 8x more tokens — 8x more engine steps — must
leave the run's peak traced allocation about where it was.
"""

import tracemalloc

from repro.models.config import GPT2
from repro.serving import KVCacheConfig
from repro.serving.cluster import ServingCluster
from repro.serving.workload_gen import poisson_trace


def peak_traced_bytes(output_len):
    """Peak bytes tracemalloc sees during one cluster run, and its report."""
    trace = poisson_trace(400, 40.0, seed=0, input_choices=(64,),
                          output_choices=(output_len,))
    cluster = ServingCluster(GPT2, initial_replicas=4, router="least_queue",
                             kv_config=KVCacheConfig.from_capacity_mb(256.0))
    tracemalloc.start()
    try:
        report = cluster.run(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, report


def test_peak_memory_does_not_grow_with_output_tokens():
    short_peak, short = peak_traced_bytes(32)
    long_peak, long = peak_traced_bytes(256)
    for report in (short, long):
        assert report.completed == 400
        # Preemption events are per-event report content; keep the pool
        # ample so the comparison isolates per-step state.
        assert report.preemptions == 0
    assert long.total_output_tokens == 8 * short.total_output_tokens
    assert long_peak < 1.5 * short_peak, \
        f"peak traced memory {short_peak / 1e6:.2f} MB -> " \
        f"{long_peak / 1e6:.2f} MB for 8x the output tokens"
