"""Prefill/decode disaggregation: protecting TTFT with a KV hand-off.

A unified replica interleaves two very different kinds of work in one
continuous batch: compute-dense prefills (a new user waiting for the first
token) and long-running decodes (everyone else's tokens trickling out).
On a *decode-heavy* trace — short prompts, long outputs — the batch slots
fill with decodes, fresh arrivals queue behind them, and p95 TTFT blows
up even though per-token latency looks fine.

Disaggregation (:class:`repro.serving.cluster.DisaggregationConfig`)
splits the fleet: arrivals are routed to dedicated *prefill* replicas,
and the moment a request's prefill completes (first token emitted) its
KV state — prompt plus that token's row — migrates over the interconnect
to a *decode* replica chosen by the ``kv_transfer_aware`` router.  The
transfer is charged against a configurable link bandwidth, so the trade
is explicit:

* p95 TTFT collapses: prefills only ever queue behind other prefills;
* TPOT degrades: decode work shares fewer replicas and every request
  pays the hand-off before its second token;
* the report itemises the traffic (migrations, MB moved, wire seconds).

This example serves one saturated decode-heavy trace through a unified
4-replica fleet and two disaggregated splits of the same total size, then
shows what a *slow* interconnect does to the same split — the knob that
decides whether disaggregation is worth it on a given deployment.

Everything is simulation on the paper's analytical model; the source
paper serves one request at a time and has no cluster tier.

Run with:  python examples/disaggregated_serving.py
"""

from repro.eval.serving import run_sweep
from repro.models import GPT2
from repro.serving import ServingCluster, poisson_trace
from repro.serving.cluster import DisaggregationConfig

# Short prompts, long outputs, arrivals well above the fleet's decode
# service rate: the regime where the two phases interfere the most.
TRACE = poisson_trace(64, arrival_rate_hz=30.0, seed=0,
                      input_choices=(32, 64), output_choices=(128, 256))


def main() -> None:
    print(f"trace: {len(TRACE)} requests, prompts 32-64 tokens, outputs "
          f"128-256 tokens, {TRACE[-1].arrival_s:.1f}s span\n")

    print("--- equal capacity, three fleet shapes "
          "(0 prefill = unified) ---")
    points = run_sweep(ServingCluster, GPT2, TRACE, {
        "unified x4": dict(initial_replicas=4),
        "1p + 3d": dict(disaggregation=DisaggregationConfig(1, 3)),
        "2p + 2d": dict(disaggregation=DisaggregationConfig(2, 2)),
    })
    for point in points:
        print("  " + point.format())
    unified, _, balanced = points

    ttft_win = unified.report.ttft.p95 / balanced.report.ttft.p95
    tpot_cost = balanced.report.tpot.mean / unified.report.tpot.mean
    print(f"\n  2p+2d vs unified: p95 TTFT {ttft_win:.1f}x better, "
          f"TPOT {tpot_cost:.1f}x worse — the disaggregation trade.\n")

    print("--- the interconnect decides: 2p+2d at three link speeds ---")
    links = run_sweep(ServingCluster, GPT2, TRACE, {
        f"{gbs:6.2f} GB/s": dict(disaggregation=DisaggregationConfig(
            2, 2, kv_transfer_gbs=gbs)) for gbs in (48.0, 1.0, 0.05)})
    for point in links:
        report = point.report
        print(f"  {point.label}: p95 ttft "
              f"{report.ttft.p95 * 1e3:7.1f} ms, tpot mean "
              f"{report.tpot.mean * 1e3:6.2f} ms, "
              f"{report.kv_transfer_seconds * 1e3:8.1f} ms on the wire")
    print("\nTTFT is immune to the link (first tokens are emitted before "
          "the hand-off);\nper-token latency eats every transfer "
          "millisecond — size the link for TPOT.")

    print("\n--- full report of the balanced split ---")
    print(balanced.report.format())


if __name__ == "__main__":
    main()
