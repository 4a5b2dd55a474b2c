"""What happens when the KV cache runs out: preemption under memory pressure.

``examples/serving_at_scale.py`` shows the serving fleet with unbounded
KV memory.  Real devices are not unbounded — the KV cache of a batch of
long requests is often the binding constraint, not compute.  This example
serves the *same* burst of long-generation requests twice through the
block-based KV manager (:mod:`repro.serving.kv_manager`):

1. **Ample pool** — every request's blocks fit; the run is identical to the
   capacity-oblivious device (0 preemptions);
2. **Tight pool** — the batch's working set overflows the pool; crossing the
   high watermark evicts the *youngest* request (blocks freed, KV recomputed
   on re-admission), the low watermark stops the eviction sweep, and the
   preemption timeline shows every swap.  All requests still finish — they
   just pay recompute time.

Everything is simulation on the paper's analytical model; the paper's own
host runtime (Section 2) serves one request at a time and never faces KV
contention.

Run with:  python examples/kv_memory_pressure.py
"""

from repro.models import GPT2
from repro.models.workload import Workload
from repro.serving import (
    KVCacheConfig,
    SchedulerConfig,
    ServingCluster,
    burst_trace,
)


def serve(label: str, kv_config: KVCacheConfig, trace) -> None:
    cluster = ServingCluster(
        GPT2,
        scheduler_config=SchedulerConfig(max_batch_size=8, token_budget=256),
        kv_config=kv_config,
    )
    report = cluster.run(trace)
    print(f"--- {label} ---")
    print(report.format())
    # One device: its replica report carries the preemption timeline.
    events = report.replica_reports[0].preemption_events
    if events:
        print("  blocks-swapped timeline (first 8 events):")
        for event in events[:8]:
            print(f"    t={event.time_s:7.3f}s  request {event.request_id:2d} "
                  f"evicted, {event.blocks_freed} blocks freed")
    print()


def main() -> None:
    # 8 long-generation requests arriving at once: each holds 256 KV
    # positions when done (~12.6 MB of GPT-2 KV at A8), so the full batch
    # wants ~100 MB of cache.
    trace = burst_trace([Workload(128, 128) for _ in range(8)])
    per_request_mb = 256 * GPT2.kv_cache_bytes_per_token(1.0) / 1e6
    print(f"burst: {len(trace)} x [128:128] requests, "
          f"~{per_request_mb:.1f} MB KV each, "
          f"~{8 * per_request_mb:.0f} MB working set\n")

    serve("ample pool: 512 MB (working set fits)",
          KVCacheConfig.from_capacity_mb(512.0), trace)
    serve("tight pool: 32 MB (~2.5 requests' worth; watermarks 0.90/0.70)",
          KVCacheConfig.from_capacity_mb(32.0, high_watermark=0.90,
                                         low_watermark=0.70), trace)

    print("Reading the numbers: the tight pool admits only what fits, evicts "
          "the youngest request when decode growth crosses the high "
          "watermark, and recomputes its KV on re-admission — everything "
          "completes, throughput pays for the recompute.  Try "
          "`python -m repro serve-sim --kv-capacity-mb 32` for the CLI view.")


if __name__ == "__main__":
    main()
