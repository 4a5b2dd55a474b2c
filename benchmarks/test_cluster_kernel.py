"""Self-benchmark of the discrete-event cluster kernel.

Not a paper artefact — the paper (conf_micro_YeC25) measures
single-request latency only.  This benchmark is the kernel rewrite's own
yardstick: a high-rate trace through a 50-replica fleet, timed end to
end, with the headline ``requests_per_sec`` recorded into
``BENCH_cluster.json`` so the simulator's throughput trajectory is
tracked across PRs like every other serving number.  A capped-size run
of the legacy step loop lands next to it as the reference (and doubles
as an at-scale differential check: both kernels must produce the
identical report on the shared trace).

Sizing: ``REPRO_BENCH_FAST=1`` (CI smoke) runs 10k requests; the default
tier-1 run 50k; ``REPRO_BENCH_FULL=1`` the headline one million requests
x 50 replicas, asserted to finish in seconds-not-minutes territory.  The
workload uses small prompts/outputs and a fat batch so the measured cost
is event dispatch plus engine stepping, not any one router policy.
"""

import gc
import json
import os
import time

import numpy as np
import pytest

import serving_artifact
from repro.models.config import GPT2
from repro.serving import SchedulerConfig, Tracer
from repro.serving.cluster import ServingCluster
from repro.serving.workload_gen import diurnal_trace

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
FULL = os.environ.get("REPRO_BENCH_FULL") == "1"

NUM_REQUESTS = 1_000_000 if FULL else (10_000 if FAST else 50_000)
REPLICAS = 50
# The step loop's O(replicas) rescan per event is exactly what this
# benchmark exists to retire — cap its reference run so the FULL mode
# doesn't spend its budget on the loop being replaced.
STEP_REQUESTS = min(NUM_REQUESTS, 20_000)
# The tracing-overhead comparison reruns the kernel bench twice per arm;
# cap it so FULL mode doesn't spend its budget measuring the tracer.
TRACED_REQUESTS = min(NUM_REQUESTS, 50_000)
# The tracing budget is absolute and per span, so it does not widen or
# narrow when the untraced run gets slower or faster: the CPU seconds a
# Tracer adds must stay within TRACING_BUDGET staging floors, where one
# floor is the CPU cost of staging the same number of spans as bare
# (kind, request, aux) triples on a list and flushing them into a float
# array — the least the tracer's step-compact format can cost.  Both
# sides are CPU time taken in one process, so the ratio carries across
# machines and CPU-speed regimes.  At the 50k size the earlier gate (10%
# of a ~2.2 s untraced run) allowed about 5 floors, and the tracer
# measures 2.4-4.8 (best-of-seven, Python 3.11 on a shared 2-vCPU VM);
# the sixth floor is the jitter margin.  The FAST smoke shrink times a
# ~0.2 s window, where jitter alone is worth several floors, so it
# guards with twice the ceiling.
TRACING_BUDGET = 12.0 if TRACED_REQUESTS < 50_000 else 6.0
SCHEDULER = SchedulerConfig(max_batch_size=64, token_budget=4096)


def kernel_trace(num_requests):
    return diurnal_trace(num_requests, 2000.0, 8000.0, period_s=60.0,
                         seed=42, input_choices=(16, 32),
                         output_choices=(2, 4))


def timed_run(kernel, trace, tracer=None, clock=time.perf_counter):
    cluster = ServingCluster(GPT2, initial_replicas=REPLICAS,
                             router="round_robin",
                             scheduler_config=SCHEDULER, kernel=kernel,
                             tracer=tracer)
    # Start every sample from the same collector state: with a heap this
    # size a stray gen-2 pass landing mid-run swings the wall by >10%.
    gc.collect()
    start = clock()
    report = cluster.run(trace)
    wall_s = clock() - start
    return cluster, report, wall_s


def staging_floor_s(spans):
    """CPU seconds to stage ``spans`` bare (kind, request, aux) triples on
    a list and flush them into a float array: the unit of
    :data:`TRACING_BUDGET`."""
    gc.collect()
    start = time.process_time()
    staged = []
    stage = staged.extend
    for request_id in range(spans):
        stage((0, request_id, 1))
    np.fromiter(staged, dtype=np.float64, count=len(staged))
    return time.process_time() - start


@pytest.fixture(scope="module")
def reference_trace():
    """The capped-size trace both kernels run (differential at scale)."""
    return kernel_trace(STEP_REQUESTS)


@pytest.mark.benchmark(group="cluster")
def test_event_kernel_throughput():
    trace = kernel_trace(NUM_REQUESTS)
    cluster, report, wall_s = timed_run("event", trace)
    requests_per_sec = NUM_REQUESTS / wall_s

    print(f"\n  event kernel: {NUM_REQUESTS:,} requests x {REPLICAS} "
          f"replicas in {wall_s:.2f}s ({requests_per_sec:,.0f} req/s, "
          f"{cluster.events_processed:,} events, "
          f"{cluster._event_queue.stale_dropped:,} stale drops)")
    serving_artifact.record_cluster(
        "cluster_kernel_event", report,
        num_requests_simulated=NUM_REQUESTS,
        replicas=REPLICAS,
        wall_s=wall_s,
        requests_per_sec=requests_per_sec,
        events_processed=cluster.events_processed)

    assert report.completed == NUM_REQUESTS
    assert report.rejected == 0
    if FULL:
        # The tentpole's headline: one million requests across fifty
        # replicas in seconds, not minutes.
        assert wall_s < 120.0, \
            f"1M-request benchmark took {wall_s:.0f}s"


@pytest.mark.benchmark(group="cluster")
def test_traced_kernel_overhead():
    """Request-lifecycle tracing's cost ceiling: rerun with a
    :class:`Tracer` attached, the kernel bench may spend at most
    :data:`TRACING_BUDGET` staging floors of extra CPU time on the spans
    it records, while the traced report minus its gated ``telemetry``
    section stays byte-identical to the untraced one.  An untimed warm-up
    pair (caches, allocator, CPU frequency), then interleaved best-of-seven
    CPU times per arm and for the floor, so machine jitter doesn't
    masquerade as tracer cost."""
    trace = kernel_trace(TRACED_REQUESTS)
    tracer = Tracer()

    timed_run("event", trace)
    timed_run("event", trace, tracer=tracer)
    spans_recorded = sum(tracer.span_counts().values())
    untraced_cpu_s = traced_cpu_s = floor_s = float("inf")
    for _ in range(7):
        _, untraced_report, cpu_s = timed_run("event", trace,
                                              clock=time.process_time)
        untraced_cpu_s = min(untraced_cpu_s, cpu_s)
        _, traced_report, cpu_s = timed_run("event", trace, tracer=tracer,
                                            clock=time.process_time)
        traced_cpu_s = min(traced_cpu_s, cpu_s)
        floor_s = min(floor_s, staging_floor_s(spans_recorded))

    tracer_s = traced_cpu_s - untraced_cpu_s
    floors = tracer_s / floor_s
    traced_rps = TRACED_REQUESTS / traced_cpu_s
    untraced_rps = TRACED_REQUESTS / untraced_cpu_s
    overhead = traced_cpu_s / untraced_cpu_s - 1.0
    print(f"\n  untraced: {untraced_cpu_s:.2f} CPU s "
          f"({untraced_rps:,.0f} req/s)")
    print(f"  traced:   {traced_cpu_s:.2f} CPU s ({traced_rps:,.0f} req/s, "
          f"{spans_recorded:,} spans) -> {overhead * 100:+.1f}%, "
          f"{tracer_s:.3f} s = {floors:.1f} staging floors "
          f"of {floor_s:.3f} s")
    serving_artifact.record_cluster(
        "cluster_kernel_traced", traced_report,
        num_requests_simulated=TRACED_REQUESTS,
        replicas=REPLICAS,
        cpu_s=traced_cpu_s,
        requests_per_sec=traced_rps,
        untraced_requests_per_sec=untraced_rps,
        overhead_pct=overhead * 100,
        tracer_us_per_span=tracer_s / spans_recorded * 1e6,
        tracer_staging_floors=floors,
        spans_recorded=spans_recorded)

    # Tracing must stay observational (same report bytes) and cheap
    # (within TRACING_BUDGET staging floors of extra CPU time).
    traced_payload = traced_report.to_dict()
    traced_payload.pop("telemetry")
    assert json.dumps(traced_payload, sort_keys=True) \
        == json.dumps(untraced_report.to_dict(), sort_keys=True)
    assert floors <= TRACING_BUDGET, \
        f"tracing costs {tracer_s:.3f} CPU s for {spans_recorded:,} " \
        f"spans = {floors:.1f} staging floors " \
        f"(>{TRACING_BUDGET:.0f} budget)"


@pytest.mark.benchmark(group="cluster")
def test_step_loop_reference_and_scale_differential(reference_trace):
    step_cluster, step_report, step_wall_s = timed_run("step",
                                                       reference_trace)
    step_rps = STEP_REQUESTS / step_wall_s
    event_cluster, event_report, event_wall_s = timed_run("event",
                                                          reference_trace)

    print(f"\n  step loop:    {STEP_REQUESTS:,} requests in "
          f"{step_wall_s:.2f}s ({step_rps:,.0f} req/s)")
    print(f"  event kernel: {STEP_REQUESTS:,} requests in "
          f"{event_wall_s:.2f}s "
          f"({STEP_REQUESTS / event_wall_s:,.0f} req/s)")
    serving_artifact.record_cluster(
        "cluster_kernel_step_reference", step_report,
        num_requests_simulated=STEP_REQUESTS,
        replicas=REPLICAS,
        wall_s=step_wall_s,
        requests_per_sec=step_rps)

    # The benchmark doubles as the differential harness at a scale the
    # unit suite never reaches: byte-identical reports, and the event
    # kernel's heap pops plus run-ahead steps equal the loop's iterations.
    assert json.dumps(event_report.to_dict(), sort_keys=True) \
        == json.dumps(step_report.to_dict(), sort_keys=True)
    assert event_cluster.events_processed + event_cluster.run_ahead_steps \
        == step_cluster.iterations
