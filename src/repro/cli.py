"""Command-line interface for the StreamTensor reproduction.

Three subcommands cover the common workflows:

* ``python -m repro compile --model gpt2 --mode decode --kv-len 256 --out build/``
  compiles one transformer block and writes the generated artefacts (HLS C++,
  link connectivity, host runtime source, compilation report) to a directory;
* ``python -m repro evaluate --experiment table4`` regenerates one of the
  paper's tables/figures and prints it (``--experiment all`` runs everything,
  mirroring ``examples/paper_evaluation.py``);
* ``python -m repro serve-sim --model gpt2 --devices 2 --requests 64`` serves
  a synthetic Poisson workload through the continuous-batching engine over N
  simulated accelerators and reports TTFT/TPOT percentiles, aggregate
  tokens/s and the speedup over the sequential one-request-at-a-time
  baseline; ``--kv-capacity-mb`` (with ``--block-size`` and ``--watermark``)
  bounds each device's KV cache with the block-based memory manager and
  reports utilization and preemptions.  ``--policy``/``--placement``/
  ``--preemption`` select the admission, device-placement and preemption
  policies; ``--prefix-cache`` (with ``--shared-prefix``) shares KV blocks
  across requests with a common prompt prefix and skips their cached
  prefill;
* ``python -m repro serve-cluster --replicas 2 --router least_queue
  --requests 128`` serves the workload through a *fleet* of engines behind
  a router; ``--trace diurnal``/``--trace flash_crowd`` generate
  rate-modulated traffic, ``--autoscale`` (with ``--slo-ttft-ms``,
  ``--min-replicas``/``--max-replicas``) lets the SLO-aware control loop
  grow and drain the fleet, and the report adds fleet throughput, SLO
  attainment, replica-seconds and the replica-count timeline.
  ``--mode unified|hybrid|disaggregated`` picks the serving regime:
  ``disaggregated`` (with ``--prefill-replicas``/``--decode-replicas``,
  ``--kv-transfer-gbs`` and ``--kv-stream-chunks``; ``--disaggregate``
  is its back-compat shorthand) splits the fleet into dedicated prefill
  and decode pools with a (optionally layer-streamed) KV hand-off
  between them — protecting TTFT from decode interference at a TPOT
  cost the report itemises; ``hybrid`` (with ``--prefill-token-cap``)
  keeps the fleet colocated but caps per-step prefill tokens so prompt
  bursts cannot monopolise a batch.
  ``--slo-class-mix`` tags requests with per-tenant SLO classes
  (interactive/standard/batch/best_effort) and ``--scheduler score``
  swaps in the score-based stack (score admission, lowest_score
  preemption, score routing) judged on per-class attainment and Jain
  fairness.  A single ``--seed`` feeds every trace generator, so
  reports are reproducible byte-for-byte.
* ``--trace-out trace.json`` (on either serving command) records every
  request's lifecycle as typed spans and writes a Chrome trace-event
  file — load it at https://ui.perfetto.dev for per-replica span
  timelines plus fleet gauge tracks; ``python -m repro trace summarize
  trace.json`` then decomposes the recorded latencies offline
  (``summarize`` for fleet-wide p50/p95/p99 per SLO class,
  ``critical-path`` for one request's span-by-span attribution,
  ``slowest --n K`` for the worst offenders).
* ``--faults 'crash@1.5:1,slow@0.5:0x2.5+2'`` (serve-cluster) injects a
  deterministic fault plan — replica crashes with bounded-retry recovery
  (``--max-retries``), transient slow nodes and KV-link degradations —
  and the report gains a faults section; ``--trace multi_turn`` /
  ``--trace tool_use`` generate conversational workloads whose
  re-entrant turns grow a shared per-session prefix.
* ``python -m repro reproduce`` regenerates every ``BENCH_*.json``
  benchmark artifact from source by running the benchmark suite
  (``--check`` is the CI smoke: a fast run into a scratch directory
  verifying every committed entry still regenerates).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.compiler import CompilerOptions, StreamTensorCompiler
from repro.eval.experiments import (
    ExperimentContext,
    format_figure9,
    format_figure10a,
    format_figure10b,
    format_figure10c,
    format_table4,
    format_table5,
    run_figure9,
    run_figure10a,
    run_figure10b,
    run_figure10c,
    run_table4,
    run_table5,
    run_table7,
)
from repro.models.config import MODEL_CONFIGS, get_model_config
from repro.models.transformer import build_decode_block, build_prefill_block
from repro.platform.fpga import FPGA_PLATFORMS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="StreamTensor reproduction: compile LLM blocks to "
                    "dataflow accelerators and regenerate the paper's "
                    "evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser(
        "compile", help="compile one transformer block to a dataflow design")
    compile_parser.add_argument("--model", choices=sorted(MODEL_CONFIGS),
                                default="gpt2")
    compile_parser.add_argument("--mode", choices=["decode", "prefill"],
                                default="decode")
    compile_parser.add_argument("--seq-len", type=int, default=64,
                                help="prompt length for prefill mode")
    compile_parser.add_argument("--kv-len", type=int, default=256,
                                help="KV-cache length for decode mode")
    compile_parser.add_argument("--platform", choices=sorted(FPGA_PLATFORMS),
                                default="u55c")
    compile_parser.add_argument("--tile-size", type=int, default=16)
    compile_parser.add_argument("--unroll", type=int, default=128)
    compile_parser.add_argument("--explore", action="store_true",
                                help="run the black-box tiling exploration")
    compile_parser.add_argument("--out", type=Path, default=None,
                                help="directory to write artefacts into")

    evaluate_parser = subparsers.add_parser(
        "evaluate", help="regenerate a paper table/figure")
    evaluate_parser.add_argument(
        "--experiment", default="all",
        choices=["all", "table4", "table5", "table7", "figure9",
                 "figure10a", "figure10b", "figure10c"])

    serve_parser = subparsers.add_parser(
        "serve-sim",
        help="serve a synthetic workload through the continuous-batching "
             "engine (simulation)")
    serve_parser.add_argument("--model", choices=sorted(MODEL_CONFIGS),
                              default="gpt2")
    serve_parser.add_argument("--devices", type=int, default=2,
                              help="simulated accelerator instances")
    serve_parser.add_argument("--requests", type=int, default=64,
                              help="number of requests in the Poisson trace")
    serve_parser.add_argument("--arrival-rate", type=float, default=8.0,
                              help="Poisson arrival rate in requests/s")
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--max-batch", type=int, default=8,
                              help="max concurrent requests per device")
    serve_parser.add_argument("--token-budget", type=int, default=256,
                              help="max tokens per engine step")
    serve_parser.add_argument("--no-chunked-prefill", action="store_true",
                              help="give long prompts a dedicated step "
                                   "instead of chunking them")
    serve_parser.add_argument("--policy", default="fcfs",
                              choices=["fcfs", "priority", "shortest_prompt",
                                       "score"],
                              help="admission/ordering policy: who gets the "
                                   "next free batch slot")
    serve_parser.add_argument("--placement", default="round_robin",
                              choices=["round_robin", "least_loaded",
                                       "kv_aware", "score"],
                              help="device placement policy for arriving "
                                   "requests")
    serve_parser.add_argument("--preemption", default="youngest",
                              choices=["youngest", "lowest_priority",
                                       "largest_kv", "lowest_score"],
                              help="which resident request is evicted under "
                                   "KV memory pressure")
    serve_parser.add_argument("--priority-levels", type=int, default=1,
                              help="sample each request's priority uniformly "
                                   "from [0, N); 1 keeps the single-tier "
                                   "trace (pairs with --policy priority / "
                                   "--preemption lowest_priority)")
    serve_parser.add_argument("--slo-class-mix", default=None,
                              metavar="MIX",
                              help="tag requests with SLO classes drawn "
                                   "from a weighted mix, e.g. "
                                   "'interactive=1,standard=2,"
                                   "best_effort=1' (pairs with --policy "
                                   "score / --preemption lowest_score)")
    serve_parser.add_argument("--prefix-cache", action="store_true",
                              help="share ref-counted KV blocks across "
                                   "requests with a common prompt prefix "
                                   "and skip their cached prefill (requires "
                                   "--kv-capacity-mb)")
    serve_parser.add_argument("--shared-prefix", type=int, default=0,
                              metavar="TOKENS",
                              help="give every request a common prompt "
                                   "prefix of TOKENS tokens (one shared "
                                   "group; capped at each prompt's length) "
                                   "so --prefix-cache has something to "
                                   "reuse")
    serve_parser.add_argument("--kv-capacity-mb", type=float, default=None,
                              help="per-device KV-cache capacity in MB; "
                                   "bounds admission/decode by KV blocks and "
                                   "preempts the youngest request under "
                                   "memory pressure (default: unmanaged)")
    serve_parser.add_argument("--block-size", type=int, default=16,
                              help="token slots per KV block (paging "
                                   "granularity; only with --kv-capacity-mb)")
    serve_parser.add_argument("--watermark", type=float, nargs=2,
                              default=(0.95, 0.80), metavar=("HIGH", "LOW"),
                              help="KV utilization watermarks: crossing HIGH "
                                   "preempts down to LOW and admission stays "
                                   "closed until below LOW (hysteresis; only "
                                   "with --kv-capacity-mb)")
    serve_parser.add_argument("--cold-start", action="store_true",
                              help="charge the one-time parameter packing "
                                   "to the serving clock")
    serve_parser.add_argument("--no-baseline", action="store_true",
                              help="skip the sequential-sweep comparison")
    serve_parser.add_argument("--trace-out", type=Path, default=None,
                              metavar="PATH",
                              help="record per-request lifecycle spans "
                                   "and write a Chrome trace-event JSON "
                                   "file (open in Perfetto; feed to "
                                   "'repro trace')")
    serve_parser.add_argument("--json", type=Path, default=None,
                              help="also write the report as JSON")

    cluster_parser = subparsers.add_parser(
        "serve-cluster",
        help="serve a synthetic workload through a multi-replica cluster "
             "with routing and optional SLO-aware autoscaling (simulation)")
    cluster_parser.add_argument("--model", choices=sorted(MODEL_CONFIGS),
                                default="gpt2")
    cluster_parser.add_argument("--replicas", type=int, default=None,
                                help="initial fleet size (single-device "
                                     "engine replicas; default 2; with "
                                     "--disaggregate the fleet is sized "
                                     "by --prefill-replicas + "
                                     "--decode-replicas instead)")
    cluster_parser.add_argument("--router", default=None,
                                choices=["round_robin", "least_queue",
                                         "least_kv_pressure",
                                         "prefix_affinity",
                                         "kv_transfer_aware", "score"],
                                help="routing policy dispatching arrivals "
                                     "across replicas (the prefill pool "
                                     "under --disaggregate; default "
                                     "round_robin, or score under "
                                     "--scheduler score)")
    cluster_parser.add_argument("--mode", default=None,
                                choices=["unified", "hybrid",
                                         "disaggregated"],
                                help="serving regime: unified (default; "
                                     "every replica serves both phases), "
                                     "hybrid (colocated fleet with a "
                                     "per-step --prefill-token-cap), or "
                                     "disaggregated (dedicated prefill "
                                     "and decode pools with a KV "
                                     "hand-off)")
    cluster_parser.add_argument("--disaggregate", action="store_true",
                                help="shorthand for --mode disaggregated: "
                                     "split the fleet into dedicated "
                                     "prefill and decode pools: arrivals "
                                     "prefill on one pool, then migrate "
                                     "(KV hand-off charged at "
                                     "--kv-transfer-gbs) to the other "
                                     "for decode")
    cluster_parser.add_argument("--prefill-replicas", type=int, default=None,
                                help="initial prefill-pool size (default "
                                     "1; requires --disaggregate)")
    cluster_parser.add_argument("--decode-replicas", type=int, default=None,
                                help="initial decode-pool size (default "
                                     "1; requires --disaggregate)")
    cluster_parser.add_argument("--kv-transfer-gbs", type=float,
                                default=None,
                                help="interconnect bandwidth in GB/s "
                                     "charged to each hand-off's KV "
                                     "payload (default: the platform "
                                     "model's achieved HBM streaming "
                                     "bandwidth; requires "
                                     "--disaggregate)")
    cluster_parser.add_argument("--kv-stream-chunks", type=int,
                                default=None,
                                help="stream each hand-off's KV in N "
                                     "layer-granular chunks — decode "
                                     "admits the request at the first "
                                     "chunk instead of waiting for the "
                                     "whole payload (default 1 = "
                                     "monolithic; requires --mode "
                                     "disaggregated)")
    cluster_parser.add_argument("--prefill-token-cap", type=int,
                                default=None,
                                help="max prefill tokens each engine step "
                                     "may spend — the hybrid-colocation "
                                     "knob keeping decode steps short "
                                     "without splitting the fleet "
                                     "(requires --mode hybrid)")
    cluster_parser.add_argument("--requests", type=int, default=128,
                                help="number of requests in the trace")
    cluster_parser.add_argument("--trace", default="poisson",
                                choices=["poisson", "diurnal",
                                         "flash_crowd", "multi_turn",
                                         "tool_use"],
                                help="arrival process: steady Poisson, "
                                     "sinusoidal diurnal cycle, steady "
                                     "traffic with one burst window, "
                                     "multi-turn chat sessions growing a "
                                     "shared prefix between think times, "
                                     "or agentic tool-use loops re-entering "
                                     "at a fixed tool-wait cadence")
    cluster_parser.add_argument("--arrival-rate", type=float, default=8.0,
                                help="arrival rate in requests/s (the base "
                                     "rate for diurnal/flash_crowd traces)")
    cluster_parser.add_argument("--peak-rate", type=float, default=None,
                                help="diurnal peak rate in requests/s "
                                     "(default: 4x the base rate; requires "
                                     "--trace diurnal)")
    cluster_parser.add_argument("--period", type=float, default=None,
                                help="diurnal period in seconds (default "
                                     "20; requires --trace diurnal)")
    cluster_parser.add_argument("--burst-rate", type=float, default=None,
                                help="flash-crowd burst rate in requests/s "
                                     "(default: 8x the base rate; requires "
                                     "--trace flash_crowd)")
    cluster_parser.add_argument("--burst-start", type=float, default=None,
                                help="flash-crowd burst start in seconds "
                                     "(default 4; requires --trace "
                                     "flash_crowd)")
    cluster_parser.add_argument("--burst-duration", type=float, default=None,
                                help="flash-crowd burst duration in seconds "
                                     "(default 3; requires --trace "
                                     "flash_crowd)")
    cluster_parser.add_argument("--multi-turn", type=int, default=None,
                                metavar="TURNS",
                                help="turns per chat session (default 4; "
                                     "requires --trace multi_turn; "
                                     "--requests then counts total turns "
                                     "across sessions)")
    cluster_parser.add_argument("--think-time", type=float, default=None,
                                metavar="SECONDS",
                                help="mean think time between a session's "
                                     "turns (default 1.0; requires --trace "
                                     "multi_turn)")
    cluster_parser.add_argument("--tool-calls", type=int, default=None,
                                help="tool-call follow-ups per agent "
                                     "(default 3; requires --trace "
                                     "tool_use; --requests then counts "
                                     "total requests across agents)")
    cluster_parser.add_argument("--tool-wait", type=float, default=None,
                                metavar="SECONDS",
                                help="fixed tool round-trip latency "
                                     "between an agent's turns (default "
                                     "0.5; requires --trace tool_use)")
    cluster_parser.add_argument("--seed", type=int, default=0,
                                help="single seed feeding every trace "
                                     "generator (reports are reproducible "
                                     "byte-for-byte per seed)")
    cluster_parser.add_argument("--autoscale", action="store_true",
                                help="let the SLO-aware control loop grow "
                                     "and drain the fleet between "
                                     "--min-replicas and --max-replicas")
    cluster_parser.add_argument("--slo-ttft-ms", type=float, default=None,
                                help="rolling-p95 TTFT target in ms for the "
                                     "autoscaler (requires --autoscale)")
    cluster_parser.add_argument("--slo-tpot-ms", type=float, default=None,
                                help="rolling-p95 TPOT target in ms — the "
                                     "decode pool's latency signal "
                                     "(requires --autoscale and "
                                     "--disaggregate)")
    cluster_parser.add_argument("--kv-pressure-high", type=float,
                                default=None,
                                help="mean KV-pool occupancy fraction "
                                     "that scales the decode pool up — "
                                     "its memory signal (requires "
                                     "--autoscale, --disaggregate and "
                                     "--kv-capacity-mb)")
    cluster_parser.add_argument("--min-replicas", type=int, default=None,
                                help="autoscaler floor (default 1; "
                                     "requires --autoscale)")
    cluster_parser.add_argument("--max-replicas", type=int, default=None,
                                help="autoscaler ceiling (default 4; "
                                     "requires --autoscale)")
    cluster_parser.add_argument("--warmup-s", type=float, default=None,
                                help="warm-up seconds charged to each "
                                     "scaled-up replica (default: the "
                                     "engine's one-time parameter-packing "
                                     "time; requires --autoscale)")
    cluster_parser.add_argument("--control-interval", type=float,
                                default=None,
                                help="autoscaler control interval in "
                                     "simulated seconds (default 0.25; "
                                     "requires --autoscale)")
    cluster_parser.add_argument("--max-batch", type=int, default=8,
                                help="max concurrent requests per replica")
    cluster_parser.add_argument("--token-budget", type=int, default=256,
                                help="max tokens per engine step")
    cluster_parser.add_argument("--scheduler", default=None,
                                choices=["fcfs", "priority", "score"],
                                help="pick a coherent scheduling stack in "
                                     "one flag: admission plus its "
                                     "matching preemption and router "
                                     "(score -> lowest_score + score "
                                     "routing); mutually exclusive with "
                                     "--policy/--preemption/--router")
    cluster_parser.add_argument("--policy", default=None,
                                choices=["fcfs", "priority",
                                         "shortest_prompt", "score"],
                                help="per-replica admission policy "
                                     "(default fcfs)")
    cluster_parser.add_argument("--priority-levels", type=int, default=1,
                                help="sample each request's priority "
                                     "uniformly from [0, N); 1 keeps the "
                                     "single-tier trace (pairs with "
                                     "--policy priority / --preemption "
                                     "lowest_priority)")
    cluster_parser.add_argument("--slo-class-mix", default=None,
                                metavar="MIX",
                                help="tag requests with SLO classes drawn "
                                     "from a weighted mix, e.g. "
                                     "'interactive=1,standard=2,"
                                     "best_effort=1'; the report then "
                                     "adds per-class attainment and a "
                                     "Jain fairness index (pairs with "
                                     "--scheduler score)")
    cluster_parser.add_argument("--preemption", default=None,
                                choices=["youngest", "lowest_priority",
                                         "largest_kv", "lowest_score"],
                                help="per-replica preemption policy under "
                                     "KV memory pressure (default "
                                     "youngest)")
    cluster_parser.add_argument("--kv-capacity-mb", type=float, default=None,
                                help="per-replica KV-cache capacity in MB "
                                     "(default: unmanaged)")
    cluster_parser.add_argument("--block-size", type=int, default=None,
                                help="token slots per KV block (default 16; "
                                     "requires --kv-capacity-mb)")
    cluster_parser.add_argument("--prefix-cache", action="store_true",
                                help="per-replica prefix caching (requires "
                                     "--kv-capacity-mb; pair with "
                                     "--shared-prefix and --router "
                                     "prefix_affinity)")
    cluster_parser.add_argument("--shared-prefix", type=int, default=0,
                                metavar="TOKENS",
                                help="give every request a common prompt "
                                     "prefix of TOKENS tokens")
    cluster_parser.add_argument("--prefix-groups", type=int, default=None,
                                help="split requests round-robin into N "
                                     "distinct prefix groups (default 1; "
                                     "requires --shared-prefix; use "
                                     "several so --router prefix_affinity "
                                     "can spread groups across replicas)")
    cluster_parser.add_argument("--kernel", default="event",
                                choices=["event", "step"],
                                help="simulation core ordering the "
                                     "cluster's events: the heap-based "
                                     "discrete-event kernel (default) or "
                                     "the legacy per-iteration rescan "
                                     "loop; both produce identical "
                                     "reports")
    cluster_parser.add_argument("--faults", default=None, metavar="SPEC",
                                help="inject a deterministic fault plan: "
                                     "comma-separated crash@T:R, "
                                     "slow@T:RxS+D and kvlink@TxS+D "
                                     "entries (e.g. 'crash@1.5:1,"
                                     "slow@0.5:0x2.5+2'); crashed "
                                     "replicas lose their in-flight "
                                     "requests, which are re-dispatched "
                                     "with a bounded retry budget, and "
                                     "the report adds a faults section")
    cluster_parser.add_argument("--max-retries", type=int, default=None,
                                help="crash-recovery budget per request "
                                     "before it is marked failed "
                                     "(default 3; requires --faults)")
    cluster_parser.add_argument("--trace-out", type=Path, default=None,
                                metavar="PATH",
                                help="record per-request lifecycle spans "
                                     "across the fleet and write a Chrome "
                                     "trace-event JSON file with one lane "
                                     "per replica plus a fleet/interconnect "
                                     "lane (open in Perfetto; feed to "
                                     "'repro trace')")
    cluster_parser.add_argument("--json", type=Path, default=None,
                                help="also write the cluster report as "
                                     "JSON")

    trace_parser = subparsers.add_parser(
        "trace",
        help="analyse a recorded Chrome trace file: decompose request "
             "latency into span contributions")
    trace_parser.add_argument("query",
                              choices=["summarize", "critical-path",
                                       "slowest"],
                              help="summarize: fleet-wide p50/p95/p99 "
                                   "time-breakdown per SLO class; "
                                   "critical-path: one request's latency "
                                   "split into span contributions "
                                   "(defaults to the p95 exemplar); "
                                   "slowest: the top-N requests by "
                                   "--metric with their breakdowns")
    trace_parser.add_argument("trace_file", type=Path,
                              help="Chrome trace JSON written by "
                                   "--trace-out")
    trace_parser.add_argument("--n", type=int, default=10,
                              help="how many requests 'slowest' lists "
                                   "(default 10)")
    trace_parser.add_argument("--request", type=int, default=None,
                              help="decompose this request id instead of "
                                   "the p95 exemplar (critical-path only)")
    trace_parser.add_argument("--metric", default="e2e",
                              choices=["e2e", "ttft"],
                              help="latency window to attribute: full "
                                   "end-to-end lifetime or the "
                                   "time-to-first-token prefix")
    trace_parser.add_argument("--slo-class", default=None,
                              help="only consider requests tagged with "
                                   "this SLO class")
    trace_parser.add_argument("--json", action="store_true",
                              help="print the analysis as JSON instead "
                                   "of text")

    reproduce_parser = subparsers.add_parser(
        "reproduce",
        help="regenerate every BENCH_*.json benchmark artifact from "
             "source by running the benchmark suite — fresh clone to "
             "full results in one command")
    reproduce_parser.add_argument("--check", action="store_true",
                                  help="fast smoke instead of a full "
                                       "run: regenerate into a scratch "
                                       "directory (REPRO_BENCH_FAST=1) "
                                       "and verify every committed "
                                       "artifact entry and key "
                                       "regenerates, without touching "
                                       "the committed files")
    reproduce_parser.add_argument("--filter", default=None, metavar="EXPR",
                                  help="only run benchmarks matching "
                                       "this pytest -k expression (the "
                                       "coverage check then restricts "
                                       "itself to the entries that ran)")
    reproduce_parser.add_argument("--bench-dir", type=Path, default=None,
                                  help="benchmark suite directory "
                                       "(default: the repo checkout's "
                                       "benchmarks/)")

    return parser


def _run_compile(args: argparse.Namespace) -> int:
    config = get_model_config(args.model)
    if args.mode == "decode":
        graph = build_decode_block(config, kv_len=args.kv_len)
    else:
        graph = build_prefill_block(config, args.seq_len)

    options = CompilerOptions(
        platform=FPGA_PLATFORMS[args.platform],
        default_tile_size=args.tile_size,
        overall_unroll_size=args.unroll,
        explore_tiling=args.explore,
    )
    result = StreamTensorCompiler(options).compile(graph, config)
    print(result.report)

    if args.out is not None:
        out_dir: Path = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "kernel.cpp").write_text(result.hls.source)
        (out_dir / "link.cfg").write_text(result.connectivity.text)
        if result.host is not None:
            (out_dir / "host.cpp").write_text(result.host.source)
        report = {
            "model": result.report.model,
            "kernels": result.report.num_kernels,
            "stream_edges": result.report.num_stream_edges,
            "memory_edges": result.report.num_memory_edges,
            "converters": result.report.num_converters,
            "fused_groups": result.report.num_fused_groups,
            "intermediate_bytes_unfused": result.report.intermediate_bytes_unfused,
            "intermediate_bytes_fused": result.report.intermediate_bytes_fused,
            "fifo_total_depth": result.fifo_sizing.total_depth
            if result.fifo_sizing else 0,
            "stage_seconds": result.report.stage_seconds,
        }
        (out_dir / "report.json").write_text(json.dumps(report, indent=2))
        print(f"artefacts written to {out_dir}/ "
              "(kernel.cpp, link.cfg, host.cpp, report.json)")
    return 0


def _run_evaluate(args: argparse.Namespace) -> int:
    context = ExperimentContext()
    experiment = args.experiment

    if experiment in ("all", "table4"):
        print(format_table4(run_table4(context)) + "\n")
    if experiment in ("all", "table5"):
        print(format_table5(run_table5(context)) + "\n")
    if experiment in ("all", "table7"):
        print("Table 7: model configurations")
        for model, row in run_table7().items():
            print(f"  {model:>6}: {row}")
        print()
    if experiment in ("all", "figure9"):
        print(format_figure9(run_figure9(context)) + "\n")
    if experiment in ("all", "figure10a"):
        print(format_figure10a(run_figure10a(context)) + "\n")
    if experiment in ("all", "figure10b"):
        print(format_figure10b(run_figure10b(context)) + "\n")
    if experiment in ("all", "figure10c"):
        print(format_figure10c(run_figure10c(context)) + "\n")
    return 0


def _wrap_shared_prefix(trace: List["TimedRequest"], tokens: int,
                        groups: int = 1) -> List["TimedRequest"]:
    """Tag every request with a shared prompt prefix of ``tokens`` tokens
    (capped at each prompt's length) so ``--prefix-cache`` has something
    to reuse.  ``groups`` splits the requests round-robin into that many
    distinct prefix groups — one group pins all traffic to a single
    replica under ``prefix_affinity`` routing, so a fleet needs several
    to balance."""
    from repro.serving import TimedRequest

    if tokens <= 0:
        return trace
    return [
        TimedRequest(t.request_id, t.workload, t.arrival_s,
                     priority=t.priority,
                     prefix_group="cli-shared" if groups == 1
                     else f"cli-shared-{i % groups}",
                     prefix_len=min(tokens, t.workload.input_len),
                     slo_class=t.slo_class)
        for i, t in enumerate(trace)
    ]


def _require_kv_for_prefix_cache(args: argparse.Namespace) -> None:
    if args.prefix_cache and args.kv_capacity_mb is None:
        raise ValueError(
            "--prefix-cache requires --kv-capacity-mb (the prefix "
            "cache lives in the KV block manager)")


def _write_trace_out(path: Path, tracer, manifest, lanes) -> None:
    from repro.serving import write_chrome_trace

    path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(path, tracer, manifest=manifest, lanes=lanes)
    print(f"trace written to {path} "
          "(load at https://ui.perfetto.dev, or run "
          f"'python -m repro trace summarize {path}')")


def _run_trace(args: argparse.Namespace) -> int:
    from repro.serving.telemetry import (
        critical_path,
        format_critical_path,
        format_slowest,
        format_summary,
        load_trace,
        slowest,
        summarize,
    )

    try:
        timelines = load_trace(args.trace_file)
    except (OSError, ValueError) as error:
        # ValueError covers both json.JSONDecodeError (truncated/empty
        # file) and the loader's not-a-Chrome-trace validation ([]/null).
        print(f"trace: cannot read {args.trace_file}: {error}",
              file=sys.stderr)
        return 2
    try:
        if not timelines:
            raise ValueError(
                f"{args.trace_file} holds no request spans (was the run "
                "recorded with --trace-out?)")
        if args.request is not None and args.query != "critical-path":
            raise ValueError(
                "--request picks the request critical-path decomposes; "
                "pair it with the critical-path query")
        if args.query == "summarize":
            result = summarize(timelines, slo_class=args.slo_class)
            text = format_summary(result)
        elif args.query == "critical-path":
            result = critical_path(timelines, request_id=args.request,
                                   metric=args.metric,
                                   slo_class=args.slo_class)
            text = format_critical_path(result)
        else:
            result = slowest(timelines, n=args.n, metric=args.metric,
                             slo_class=args.slo_class)
            text = format_slowest(result)
    except ValueError as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result, indent=2) if args.json else text)
    return 0


def _run_serve_sim(args: argparse.Namespace) -> int:
    from repro.eval.serving import compare_with_sequential, run_sequential_baseline
    from repro.serving import (
        KVCacheConfig,
        SchedulerConfig,
        ServingEngine,
        Tracer,
        poisson_trace,
    )

    config = get_model_config(args.model)
    try:
        _require_kv_for_prefix_cache(args)
        kv_config = None
        if args.kv_capacity_mb is not None:
            high, low = args.watermark
            kv_config = KVCacheConfig.from_capacity_mb(
                args.kv_capacity_mb, block_size=args.block_size,
                high_watermark=high, low_watermark=low,
                enable_prefix_cache=args.prefix_cache)
        priority_choices = None
        if args.priority_levels > 1:
            priority_choices = range(args.priority_levels)
        trace = poisson_trace(args.requests, args.arrival_rate,
                              seed=args.seed,
                              priority_choices=priority_choices,
                              slo_class_mix=args.slo_class_mix)
        trace = _wrap_shared_prefix(trace, args.shared_prefix)
        tracer = Tracer() if args.trace_out is not None else None
        engine = ServingEngine(
            config,
            num_devices=args.devices,
            scheduler_config=SchedulerConfig(
                max_batch_size=args.max_batch,
                token_budget=args.token_budget,
                chunked_prefill=not args.no_chunked_prefill,
                admission=args.policy,
            ),
            cold_start=args.cold_start,
            kv_config=kv_config,
            placement=args.placement,
            preemption=args.preemption,
            tracer=tracer,
        )
    except ValueError as error:
        print(f"serve-sim: {error}", file=sys.stderr)
        return 2
    report = engine.run(trace, manifest_extra={"seed": args.seed})
    print(report.format())

    if tracer is not None:
        _write_trace_out(args.trace_out, tracer, report.manifest,
                         {d: f"device {d}" for d in range(args.devices)})

    comparison = None
    if not args.no_baseline:
        baseline = run_sequential_baseline(config, trace,
                                           cold_start=args.cold_start)
        comparison = compare_with_sequential(report, baseline)
        print(comparison.format())

    if args.json is not None:
        payload = report.to_dict()
        if comparison is not None:
            payload["sequential_tokens_per_s"] = comparison.baseline.tokens_per_s
            payload["speedup_vs_sequential"] = comparison.speedup
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2))
        print(f"report written to {args.json}")
    return 0


def _build_cluster_trace(args: argparse.Namespace) -> List["TimedRequest"]:
    """One --seed feeds whichever generator --trace selects."""
    from repro.serving import (
        diurnal_trace,
        flash_crowd_trace,
        multi_turn_trace,
        poisson_trace,
        tool_use_trace,
    )

    # Flags for the trace shapes not selected would be silently dropped;
    # reject them the way the autoscaler flags are rejected.
    shape_flags = {"diurnal": (("--peak-rate", args.peak_rate),
                               ("--period", args.period)),
                   "flash_crowd": (("--burst-rate", args.burst_rate),
                                   ("--burst-start", args.burst_start),
                                   ("--burst-duration",
                                    args.burst_duration)),
                   "multi_turn": (("--multi-turn", args.multi_turn),
                                  ("--think-time", args.think_time)),
                   "tool_use": (("--tool-calls", args.tool_calls),
                                ("--tool-wait", args.tool_wait))}
    for shape, flags in shape_flags.items():
        if args.trace == shape:
            continue
        ignored = [flag for flag, value in flags if value is not None]
        if ignored:
            raise ValueError(
                f"{', '.join(ignored)} only shape(s) a --trace {shape} "
                f"trace, not --trace {args.trace}")
    priority_choices = None
    if args.priority_levels > 1:
        priority_choices = range(args.priority_levels)
    if args.trace in ("multi_turn", "tool_use"):
        # The conversational generators own their prefix declarations
        # (the accumulated per-session context) and model one tenant's
        # sessions, so the cross-cutting trace decorations don't compose.
        clashing = [flag for flag, value in
                    (("--shared-prefix", args.shared_prefix or None),
                     ("--slo-class-mix", args.slo_class_mix),
                     ("--priority-levels", args.priority_levels
                      if args.priority_levels > 1 else None))
                    if value is not None]
        if clashing:
            raise ValueError(
                f"{', '.join(clashing)} cannot decorate a --trace "
                f"{args.trace} trace: conversational sessions declare "
                "their own growing prefixes")
    if args.trace == "diurnal":
        peak = args.peak_rate if args.peak_rate is not None \
            else 4.0 * args.arrival_rate
        period = args.period if args.period is not None else 20.0
        trace = diurnal_trace(args.requests, args.arrival_rate, peak,
                              period_s=period, seed=args.seed,
                              priority_choices=priority_choices,
                              slo_class_mix=args.slo_class_mix)
    elif args.trace == "flash_crowd":
        burst = args.burst_rate if args.burst_rate is not None \
            else 8.0 * args.arrival_rate
        start = args.burst_start if args.burst_start is not None else 4.0
        duration = args.burst_duration \
            if args.burst_duration is not None else 3.0
        trace = flash_crowd_trace(args.requests, args.arrival_rate, burst,
                                  burst_start_s=start,
                                  burst_duration_s=duration,
                                  seed=args.seed,
                                  priority_choices=priority_choices,
                                  slo_class_mix=args.slo_class_mix)
    elif args.trace == "multi_turn":
        turns = args.multi_turn if args.multi_turn is not None else 4
        if turns < 1:
            raise ValueError("--multi-turn must be at least 1")
        sessions = max(1, args.requests // turns)
        trace = multi_turn_trace(
            sessions, turns, seed=args.seed,
            session_rate_hz=args.arrival_rate,
            think_time_s=args.think_time
            if args.think_time is not None else 1.0)
    elif args.trace == "tool_use":
        calls = args.tool_calls if args.tool_calls is not None else 3
        if calls < 0:
            raise ValueError("--tool-calls must be non-negative")
        agents = max(1, args.requests // (calls + 1))
        trace = tool_use_trace(
            agents, calls, seed=args.seed,
            agent_rate_hz=args.arrival_rate,
            tool_wait_s=args.tool_wait
            if args.tool_wait is not None else 0.5)
    else:
        trace = poisson_trace(args.requests, args.arrival_rate,
                              seed=args.seed,
                              priority_choices=priority_choices,
                              slo_class_mix=args.slo_class_mix)
    groups = args.prefix_groups if args.prefix_groups is not None else 1
    return _wrap_shared_prefix(trace, args.shared_prefix, groups)


def _run_serve_cluster(args: argparse.Namespace) -> int:
    from repro.serving import (
        AutoscalerConfig,
        DisaggregationConfig,
        KVCacheConfig,
        SchedulerConfig,
        ServingCluster,
        Tracer,
        parse_fault_spec,
    )

    config = get_model_config(args.model)
    try:
        _require_kv_for_prefix_cache(args)
        if args.scheduler is not None:
            picked = [flag for flag, value in
                      (("--policy", args.policy),
                       ("--preemption", args.preemption),
                       ("--router", args.router))
                      if value is not None]
            if picked:
                raise ValueError(
                    f"--scheduler already picks a full stack; drop "
                    f"{', '.join(picked)} or drop --scheduler")
            args.policy = args.scheduler
            if args.scheduler == "score":
                args.preemption = "lowest_score"
                args.router = "score"
            elif args.scheduler == "priority":
                args.preemption = "lowest_priority"
        policy = args.policy if args.policy is not None else "fcfs"
        preemption = args.preemption if args.preemption is not None \
            else "youngest"
        router = args.router if args.router is not None else "round_robin"
        if args.kv_capacity_mb is None and args.block_size is not None:
            raise ValueError(
                "--block-size only sizes the KV block pool; pair with "
                "--kv-capacity-mb")
        if args.prefix_groups is not None:
            if args.shared_prefix <= 0:
                raise ValueError(
                    "--prefix-groups only splits a shared prefix; pair "
                    "with --shared-prefix")
            if args.prefix_groups < 1:
                raise ValueError("--prefix-groups must be at least 1")
        if args.kv_pressure_high is not None and args.kv_capacity_mb is None:
            raise ValueError(
                "--kv-pressure-high watches the KV block pool; pair with "
                "--kv-capacity-mb")
        mode = args.mode
        if args.disaggregate:
            if mode is None:
                mode = "disaggregated"
            elif mode != "disaggregated":
                raise ValueError(
                    "--disaggregate is shorthand for --mode "
                    f"disaggregated and contradicts --mode {mode}; "
                    "drop one of them")
        if mode is None:
            mode = "unified"
        disaggregate = mode == "disaggregated"
        if mode == "hybrid" and args.prefill_token_cap is None:
            raise ValueError(
                "--mode hybrid caps per-step prefill tokens; set "
                "--prefill-token-cap")
        if args.prefill_token_cap is not None and mode != "hybrid":
            raise ValueError(
                "--prefill-token-cap is the hybrid-colocation knob; "
                "pair with --mode hybrid")
        if not disaggregate:
            ignored = [flag for flag, value in
                       (("--prefill-replicas", args.prefill_replicas),
                        ("--decode-replicas", args.decode_replicas),
                        ("--kv-transfer-gbs", args.kv_transfer_gbs),
                        ("--kv-stream-chunks", args.kv_stream_chunks),
                        ("--slo-tpot-ms", args.slo_tpot_ms),
                        ("--kv-pressure-high", args.kv_pressure_high))
                       if value is not None]
            if ignored:
                raise ValueError(
                    f"{', '.join(ignored)} only shape(s) a disaggregated "
                    "fleet; pair with --mode disaggregated")
        elif args.replicas is not None:
            raise ValueError(
                "--replicas sizes a unified fleet; with --mode "
                "disaggregated use --prefill-replicas and "
                "--decode-replicas")
        if not args.autoscale:
            ignored = [flag for flag, value in
                       (("--slo-ttft-ms", args.slo_ttft_ms),
                        ("--slo-tpot-ms", args.slo_tpot_ms),
                        ("--kv-pressure-high", args.kv_pressure_high),
                        ("--min-replicas", args.min_replicas),
                        ("--max-replicas", args.max_replicas),
                        ("--warmup-s", args.warmup_s),
                        ("--control-interval", args.control_interval))
                       if value is not None]
            if ignored:
                raise ValueError(
                    f"{', '.join(ignored)} only steer(s) the control "
                    "loop; pair with --autoscale")
        kv_config = None
        if args.kv_capacity_mb is not None:
            kv_config = KVCacheConfig.from_capacity_mb(
                args.kv_capacity_mb,
                block_size=args.block_size
                if args.block_size is not None else 16,
                enable_prefix_cache=args.prefix_cache)
        autoscaler = None
        if args.autoscale:
            defaults = AutoscalerConfig()
            autoscaler = AutoscalerConfig(
                min_replicas=args.min_replicas
                if args.min_replicas is not None
                else defaults.min_replicas,
                max_replicas=args.max_replicas
                if args.max_replicas is not None
                else defaults.max_replicas,
                slo_ttft_s=args.slo_ttft_ms / 1e3
                if args.slo_ttft_ms is not None else None,
                slo_tpot_s=args.slo_tpot_ms / 1e3
                if args.slo_tpot_ms is not None else None,
                kv_pressure_high=args.kv_pressure_high,
                control_interval_s=args.control_interval
                if args.control_interval is not None
                else defaults.control_interval_s,
                warmup_s=args.warmup_s)
        disaggregation = None
        if disaggregate:
            disaggregation = DisaggregationConfig(
                prefill_replicas=args.prefill_replicas
                if args.prefill_replicas is not None else 1,
                decode_replicas=args.decode_replicas
                if args.decode_replicas is not None else 1,
                kv_transfer_gbs=args.kv_transfer_gbs,
                kv_stream_chunks=args.kv_stream_chunks
                if args.kv_stream_chunks is not None else 1)
        initial_replicas = args.replicas if args.replicas is not None \
            else (1 if disaggregate else 2)
        fault_plan = None
        if args.faults is not None:
            # The most replicas the fleet can ever hold (each autoscaled
            # pool is capped at --max-replicas): a fault aimed beyond it
            # could never fire, so it is a mistake, not a no-op.
            pools = (initial_replicas,) if disaggregation is None \
                else (disaggregation.prefill_replicas,
                      disaggregation.decode_replicas)
            fault_plan = parse_fault_spec(
                args.faults,
                max_retries=args.max_retries
                if args.max_retries is not None else 3,
                fleet_size=sum(autoscaler.max_replicas
                               if autoscaler is not None else count
                               for count in pools))
        elif args.max_retries is not None:
            raise ValueError(
                "--max-retries bounds crash recovery; pair with --faults")
        trace = _build_cluster_trace(args)
        tracer = Tracer() if args.trace_out is not None else None
        cluster = ServingCluster(
            config,
            initial_replicas=initial_replicas,
            router=router,
            scheduler_config=SchedulerConfig(
                max_batch_size=args.max_batch,
                token_budget=args.token_budget,
                admission=policy,
                prefill_token_cap=args.prefill_token_cap,
            ),
            kv_config=kv_config,
            preemption=preemption,
            autoscaler=autoscaler,
            disaggregation=disaggregation,
            kernel=args.kernel,
            tracer=tracer,
            fault_plan=fault_plan,
        )
    except ValueError as error:
        print(f"serve-cluster: {error}", file=sys.stderr)
        return 2
    report = cluster.run(trace, manifest_extra={"seed": args.seed})
    print(report.format())

    if tracer is not None:
        _write_trace_out(
            args.trace_out, tracer, report.manifest,
            {replica.replica_id:
             f"replica {replica.replica_id} [{replica.role.value}]"
             for replica in cluster.replicas})

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report.to_dict(), indent=2))
        print(f"report written to {args.json}")
    return 0


#: The artifact files ``repro reproduce`` regenerates and checks.
_BENCH_ARTIFACTS = ("BENCH_serving.json", "BENCH_cluster.json",
                    "BENCH_manifests.json")


def _run_reproduce(args: argparse.Namespace) -> int:
    import os
    import subprocess
    import tempfile

    bench_dir = args.bench_dir
    if bench_dir is None:
        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.is_dir():
        print(f"reproduce: benchmark directory {bench_dir} not found "
              "(run from a repo checkout or pass --bench-dir)",
              file=sys.stderr)
        return 2

    command = [sys.executable, "-m", "pytest", str(bench_dir), "-q",
               "--benchmark-disable", "-p", "no:cacheprovider"]
    if args.filter is not None:
        command += ["-k", args.filter]
    env = dict(os.environ)
    scratch = None
    if args.check:
        scratch = Path(tempfile.mkdtemp(prefix="repro-bench-check-"))
        env["REPRO_BENCH_FAST"] = "1"
        env["REPRO_BENCH_DIR"] = str(scratch)
        print(f"reproduce --check: fast run into {scratch}")
    else:
        env.pop("REPRO_BENCH_DIR", None)
        print(f"reproduce: full benchmark run regenerating {bench_dir}"
              "/BENCH_*.json")
    completed = subprocess.run(command, env=env)
    if completed.returncode != 0:
        print("reproduce: benchmark run failed "
              f"(pytest exit {completed.returncode})", file=sys.stderr)
        return completed.returncode or 1
    if not args.check:
        print(f"reproduce: artifacts regenerated in {bench_dir}")
        return 0

    # Coverage check: every recorded entry (and every key of it) must
    # have regenerated.  Values legitimately differ — the fast run sizes
    # scenarios down — so drift is judged on names and keys only.  A
    # fresh clone has no recorded artifacts (they are generated, not
    # committed); the check then verifies the regeneration itself.
    drift: List[str] = []
    checked = regenerated = 0
    for name in _BENCH_ARTIFACTS:
        committed_path = bench_dir / name
        fresh_path = scratch / name
        baseline = committed_path.exists()
        committed = json.loads(committed_path.read_text()) \
            if baseline else {}
        fresh = json.loads(fresh_path.read_text()) \
            if fresh_path.exists() else {}
        regenerated += len(fresh)
        if args.filter is not None:
            # A filtered run only regenerates what it selected.
            committed = {key: value for key, value in committed.items()
                         if key in fresh}
        for entry in sorted(set(committed) - set(fresh)):
            drift.append(f"{name}: entry {entry!r} did not regenerate")
        if args.filter is None and baseline:
            for entry in sorted(set(fresh) - set(committed)):
                drift.append(
                    f"{name}: new entry {entry!r} is not recorded — "
                    "run 'repro reproduce' to refresh the artifact")
        for entry in sorted(set(committed) & set(fresh)):
            lost = sorted(set(committed[entry]) - set(fresh[entry]))
            if lost:
                drift.append(f"{name}: entry {entry!r} lost key(s) "
                             f"{', '.join(lost)}")
            checked += 1
    if not drift and regenerated == 0:
        drift.append("the benchmark run produced no artifact entries "
                     "at all")
    if drift:
        for line in drift:
            print(f"reproduce: {line}", file=sys.stderr)
        return 1
    print(f"reproduce --check OK: {regenerated} entries regenerated, "
          f"{checked} verified against the recorded artifacts")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "compile":
        return _run_compile(args)
    if args.command == "evaluate":
        return _run_evaluate(args)
    if args.command == "serve-sim":
        return _run_serve_sim(args)
    if args.command == "serve-cluster":
        return _run_serve_cluster(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "reproduce":
        return _run_reproduce(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
