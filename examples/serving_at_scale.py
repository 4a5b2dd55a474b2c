"""Serve heavy multi-tenant traffic on simulated StreamTensor accelerators.

``examples/llm_serving.py`` answers "what does ONE request look like"; this
example answers the production question: what happens when 64 users hit a
pool of accelerators at once?  It drives a fixed fleet of
continuous-batching devices (:class:`repro.serving.ServingCluster`) with a
Poisson arrival trace and shows the three levers that matter:

1. **Continuous batching** — the fused block streams each layer's weights
   from HBM once per engine step no matter how many requests share it, so
   batching amortises the cost that dominates single-token decoding;
2. **Multi-device sharding** — requests round-robin across accelerator
   instances;
3. **Token budget** — bounding tokens per step trades time-to-first-token
   against per-token latency.

Everything is simulation on the paper's analytical performance model; the
paper itself (Section 2 host runtime) serves one request at a time.

Run with:  python examples/serving_at_scale.py
"""

from repro.eval.serving import compare_with_sequential, run_sequential_baseline
from repro.models import GPT2
from repro.serving import SchedulerConfig, ServingCluster, poisson_trace


def run(label: str, num_devices: int, scheduler: SchedulerConfig, trace) -> None:
    cluster = ServingCluster(GPT2, initial_replicas=num_devices,
                             scheduler_config=scheduler)
    report = cluster.run(trace)
    comparison = compare_with_sequential(
        report, run_sequential_baseline(GPT2, trace))
    print(f"--- {label} ---")
    print(report.format())
    print(comparison.format())
    print()


def main() -> None:
    trace = poisson_trace(num_requests=64, arrival_rate_hz=8.0, seed=0)
    print(f"trace: {len(trace)} requests over {trace[-1].arrival_s:.1f} s, "
          f"{sum(t.workload.output_len for t in trace)} output tokens requested\n")

    baseline_scheduler = SchedulerConfig(max_batch_size=8, token_budget=256)
    run("1 device, continuous batching", 1, baseline_scheduler, trace)
    run("2 devices, continuous batching", 2, baseline_scheduler, trace)
    run("2 devices, batch=1 (no batching, sharding only)", 2,
        SchedulerConfig(max_batch_size=1, token_budget=256), trace)
    run("2 devices, tight 64-token budget (lower TTFT, chunked prefill)", 2,
        SchedulerConfig(max_batch_size=8, token_budget=64), trace)

    print("Reading the numbers: batching amortises weight streaming, so even "
          "one device beats the sequential sweep; sharding multiplies it; a "
          "tighter token budget lowers TTFT at some cost in throughput.")


if __name__ == "__main__":
    main()
