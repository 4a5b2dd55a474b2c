"""Report digests of :func:`repro.eval.serving.run_sweep` on small fixed
traces, one sweep per config axis (policy stack, fleet shape, prefill/decode
split, class-mix scheduler stack, KV capacity).

Every point's ``json.dumps(report.to_dict(), sort_keys=True)`` is pinned to
a recorded sha256.  The digests were recorded with the per-axis sweep
functions ``run_sweep`` replaced, called with the same constructor
arguments, so they prove the port moved no report byte.
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
    ServingEngine,
    poisson_trace,
    shared_prefix_trace,
)
from repro.serving.cluster import (
    AutoscalerConfig,
    DisaggregationConfig,
    ServingCluster,
)

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

    def stack(admission="fcfs", placement="round_robin",
              preemption="youngest", prefix_cache=False):
        return dict(
            scheduler_config=dataclasses.replace(scheduler,
                                                 admission=admission),
            kv_config=KVCacheConfig.from_capacity_mb(
                256.0, enable_prefix_cache=prefix_cache),
            placement=placement, preemption=preemption)

    return run_sweep(ServingEngine, GPT2, PREFIX_TRACE, {
        "fcfs": stack(),
        "shortest_prompt": stack(admission="shortest_prompt"),
        "priority": stack(admission="priority",
                          preemption="lowest_priority"),
        "least_loaded": stack(placement="least_loaded"),
        "prefix": stack(prefix_cache=True),
        "kv_aware+prefix": stack(placement="kv_aware", prefix_cache=True),
    }, num_devices=2)


def policy_unmanaged():
    return run_sweep(ServingEngine, GPT2, PREFIX_TRACE, {"fcfs": {}})


def cluster():
    return run_sweep(ServingCluster, GPT2, CLUSTER_TRACE, {
        f"{replicas}x {router}": dict(initial_replicas=replicas,
                                      router=router)
        for replicas in (1, 2) for router in ("round_robin", "least_queue")})


def cluster_autoscaled():
    return run_sweep(
        ServingCluster, GPT2, CLUSTER_TRACE, {"1 initial": {}},
        autoscaler=AutoscalerConfig(max_replicas=2, warmup_s=0.2,
                                    slo_ttft_s=5.0))


def disaggregation():
    return run_sweep(ServingCluster, GPT2, DISAGG_TRACE, {
        "unified x2": dict(initial_replicas=2),
        "hybrid x2": dict(initial_replicas=2,
                          scheduler_config=SchedulerConfig(
                              prefill_token_cap=48)),
        "1p + 1d": dict(disaggregation=DisaggregationConfig(
            1, 1, kv_transfer_gbs=0.1, kv_stream_chunks=4)),
    }, scheduler_config=SchedulerConfig())


def class_mix():
    return run_sweep(ServingCluster, GPT2, CLASS_MIX_TRACE,
                     class_mix_stacks(), initial_replicas=2)


def capacity():
    return run_sweep(ServingEngine, GPT2, CAPACITY_TRACE, {
        "unmanaged": {},
        **{f"{mb:.0f} MB": dict(kv_config=KVCacheConfig.from_capacity_mb(
            mb, high_watermark=0.9, low_watermark=0.7)) for mb in (48, 24)},
    })


SWEEP_SHA256 = {
    policy: [
        "a5970f6b3a8272f2c4757b8596e0a7c0bb5d2cf17fe3a09385ca38a08695024e",
        "42d2aab3681c105070ba41d6a51492ba13c120e09b464f8c25107a815333bbe3",
        "0c4e909c8c2d34620c437823fd58d9393a349d345a66122e04f3e4e353ec8c57",
        "a785ef5f62d6cdc6d85813df32a882f0e8e635416d315e3e841c29d8170c27a7",
        "32160e7c2e6abbb51b923d1432d3c2e01bcc6247b59e57fc003e4bed644db838",
        "3dfe42d32db039e4314d86b8e0200c476855362a63f7396a0e9a79bd90ce62c7",
    ],
    policy_unmanaged: [
        "14f9ba440fe0c01b26c9ec8017e24162140730c229b6b560015279c209ec2edd",
    ],
    cluster: [
        "a69dfdcdd1fe40c6ee158e1fcb2e98d0ef323ebc7bf0e07d4d892a803d80d9df",
        "b6a241bdb3e76b9a09cde23419a4af0678710089d9921bd058b2ed53f01a3e2c",
        "e349c17f2ecfe7e969e22c591cc6c52015213015f3e4a782b98366b44d0d4090",
        "5a40c631e0790c3ca409e65a11ce33ed2181b69eddf869d5210404c1fc13b14d",
    ],
    cluster_autoscaled: [
        "3abeb2e84c73a972e58829e27c5afb07e92354a85833e2d4dc0db1f5a66c5e70",
    ],
    disaggregation: [
        "f34eca404642303d67e36c62f01120f306a37a4ac8c16792b99ffe2828e9da2a",
        "9df354fca8e25ec586e89de77e9fba9e55ada7cceba48879e99e0ebc8f98e93f",
        "88613141435dd67151c513430faba50bb1818b9f3617eed39d8209bf9649ebf5",
    ],
    class_mix: [
        "8cdfae6039fb879c526678103feb618b0619710db3e5dc1b75d09087e7896be7",
        "f3bb49992bb513a1afe723cb216b78c0e52270b0c4b1e4ccddccee4b61930486",
        "9a4fd2a4648d05d08356f4caf7ae5e424a9ec553dc1081eec4fe973f866049de",
    ],
    capacity: [
        "278892ac80f67400e42e589ab5f8e4bf2109e7aed52de79be89956706fcd9478",
        "816cd504d025e1b4a40ec67633ac59de454a84de535e582aef183ccd83a3a318",
        "909a193b7423a2921cecde51fa8f5bd010fec128a5404579e4e7b615bd13196e",
    ],
}


def digest(report) -> str:
    payload = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("sweep", list(SWEEP_SHA256),
                         ids=lambda sweep: sweep.__name__)
def test_sweep_digests_pinned(sweep):
    assert [digest(p.report) for p in sweep()] == SWEEP_SHA256[sweep]
