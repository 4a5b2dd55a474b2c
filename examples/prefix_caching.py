"""Prefix caching and serving policies on a shared-prompt workload.

Every request in this trace opens with the same 192-token system prompt
followed by a short private question — the chat-service shape vLLM's
automatic prefix caching exists for.  With ``enable_prefix_cache`` the
first request of the group prefills the shared prefix once into ref-counted
KV blocks; every follower reuses those blocks (no allocation) and skips the
cached positions in its own prefill, so TTFT collapses and aggregate
throughput jumps.

The second half sweeps the pluggable policy stacks (admission, routing,
preemption, prefix cache) over one fixed trace — the serving counterpart of
an ablation table.

Run with: PYTHONPATH=src python examples/prefix_caching.py
"""

import dataclasses

from repro.eval.serving import run_sweep
from repro.models.config import GPT2
from repro.serving import (
    KVCacheConfig,
    SchedulerConfig,
    ServingCluster,
    shared_prefix_trace,
)


def main() -> None:
    trace = shared_prefix_trace(num_requests=16, prefix_len=192,
                                unique_len=16, output_len=32)
    scheduler = SchedulerConfig(max_batch_size=4, token_budget=256)

    print("=== shared-prompt trace: 16 x [192 shared + 16 private : 32] ===\n")
    for enabled in (False, True):
        kv = KVCacheConfig.from_capacity_mb(512.0,
                                            enable_prefix_cache=enabled)
        report = ServingCluster(GPT2, kv_config=kv,
                                scheduler_config=scheduler).run(trace)
        print(f"--- prefix cache {'ON' if enabled else 'OFF'} ---")
        print(report.format())
        print()

    print("=== policy comparison on the same trace ===\n")

    def stack(admission="fcfs", prefix_cache=False, **policies):
        return dict(
            scheduler_config=dataclasses.replace(scheduler,
                                                 admission=admission),
            kv_config=KVCacheConfig.from_capacity_mb(
                512.0, enable_prefix_cache=prefix_cache),
            **policies)

    variants = {
        "fcfs": stack(),
        "shortest_prompt": stack(admission="shortest_prompt"),
        "priority": stack(admission="priority",
                          preemption="lowest_priority"),
        "least_queue": stack(router="least_queue"),
        "prefix": stack(prefix_cache=True),
        "least_kv+prefix": stack(router="least_kv_pressure",
                                 prefix_cache=True),
    }
    for point in run_sweep(GPT2, trace, variants, initial_replicas=2):
        print(point.format())


if __name__ == "__main__":
    main()
