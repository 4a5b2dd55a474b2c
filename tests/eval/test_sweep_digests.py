"""Report digests of :func:`repro.eval.serving.run_sweep` on small fixed
traces, one sweep per config axis (policy stack, fleet shape, prefill/decode
split, class-mix scheduler stack, KV capacity).

Every point's ``json.dumps(report.to_dict(), sort_keys=True)`` is pinned to
a recorded sha256 in ``tests/pins.json``, keyed ``<sweep>/<label>``.  The
fleet, disaggregation and class-mix digests were recorded with the per-axis
sweep functions ``run_sweep`` replaced, called with the same constructor
arguments, so they prove that port moved no report byte.  The policy and
capacity points were re-pinned when a fixed ``ServingCluster`` fleet
replaced the pre-placing engine driver: their reports took the cluster
report's shape (see CHANGES.md).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.eval.serving import class_mix_stacks, run_sweep
from repro.models.config import GPT2
from repro.serving import (
    KVCacheConfig,
    SchedulerConfig,
    poisson_trace,
    shared_prefix_trace,
)
from repro.serving.cluster import AutoscalerConfig, DisaggregationConfig

PREFIX_TRACE = shared_prefix_trace(8, prefix_len=96, unique_len=16,
                                   output_len=16)
CLUSTER_TRACE = poisson_trace(16, 40.0, seed=0)
DISAGG_TRACE = poisson_trace(16, 30.0, seed=0, input_choices=(32, 64),
                             output_choices=(96, 128))
CLASS_MIX_TRACE = poisson_trace(
    24, 45.0, seed=7,
    slo_class_mix="interactive=2,standard=2,batch=1,best_effort=1",
    input_choices=(32, 64, 128), output_choices=(16, 32, 64))
CAPACITY_TRACE = poisson_trace(12, 100.0, seed=4, input_choices=(64, 128),
                               output_choices=(64,))


def policy():
    scheduler = SchedulerConfig(max_batch_size=4, token_budget=256)

    def stack(admission="fcfs", router="round_robin",
              preemption="youngest", prefix_cache=False):
        return dict(
            scheduler_config=dataclasses.replace(scheduler,
                                                 admission=admission),
            kv_config=KVCacheConfig.from_capacity_mb(
                256.0, enable_prefix_cache=prefix_cache),
            router=router, preemption=preemption)

    # The least_loaded and kv_aware labels name the retired placement
    # policies these points ran before the live routers replaced them.
    return run_sweep(GPT2, PREFIX_TRACE, {
        "fcfs": stack(),
        "shortest_prompt": stack(admission="shortest_prompt"),
        "priority": stack(admission="priority",
                          preemption="lowest_priority"),
        "least_loaded": stack(router="least_queue"),
        "prefix": stack(prefix_cache=True),
        "kv_aware+prefix": stack(router="least_kv_pressure",
                                 prefix_cache=True),
    }, initial_replicas=2)


def policy_unmanaged():
    return run_sweep(GPT2, PREFIX_TRACE, {"fcfs": {}})


def cluster():
    return run_sweep(GPT2, CLUSTER_TRACE, {
        f"{replicas}x {router}": dict(initial_replicas=replicas,
                                      router=router)
        for replicas in (1, 2) for router in ("round_robin", "least_queue")})


def cluster_autoscaled():
    return run_sweep(
        GPT2, CLUSTER_TRACE, {"1 initial": {}},
        autoscaler=AutoscalerConfig(max_replicas=2, warmup_s=0.2,
                                    slo_ttft_s=5.0))


def disaggregation():
    return run_sweep(GPT2, DISAGG_TRACE, {
        "unified x2": dict(initial_replicas=2),
        "hybrid x2": dict(initial_replicas=2,
                          scheduler_config=SchedulerConfig(
                              prefill_token_cap=48)),
        "1p + 1d": dict(disaggregation=DisaggregationConfig(
            1, 1, kv_transfer_gbs=0.1, kv_stream_chunks=4)),
    }, scheduler_config=SchedulerConfig())


def class_mix():
    return run_sweep(GPT2, CLASS_MIX_TRACE, class_mix_stacks(),
                     initial_replicas=2)


def capacity():
    return run_sweep(GPT2, CAPACITY_TRACE, {
        "unmanaged": {},
        **{f"{mb:.0f} MB": dict(kv_config=KVCacheConfig.from_capacity_mb(
            mb, high_watermark=0.9, low_watermark=0.7)) for mb in (48, 24)},
    })


SWEEPS = (policy, policy_unmanaged, cluster, cluster_autoscaled,
          disaggregation, class_mix, capacity)


def digest(report) -> str:
    payload = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda sweep: sweep.__name__)
def test_sweep_digests_pinned(sweep, pin):
    points = sweep()
    cases = [f"{sweep.__name__}/{point.label}" for point in points]
    recorded = {case for case in pin.cases
                if case.startswith(f"{sweep.__name__}/")}
    assert pin.regen or sorted(cases) == sorted(recorded)
    for case, point in zip(cases, points):
        pin(case, digest(point.report))
