"""Command-line interface for the StreamTensor reproduction.

* ``compile`` compiles one transformer block and writes the generated
  artefacts (HLS C++, link connectivity, host runtime source, report);
* ``evaluate`` regenerates one of the paper's tables/figures (``all``
  runs everything, like ``examples/paper_evaluation.py``);
* ``serve-sim`` serves a synthetic Poisson trace through a fixed fleet of
  N simulated devices behind a router and compares it with the sequential
  one-request-at-a-time baseline;
* ``serve-cluster`` serves a trace through a fleet of engine replicas
  behind a router: unified, hybrid or disaggregated into prefill/decode
  pools, optionally autoscaled or under an injected fault plan;
* ``trace`` analyses a Chrome trace written by ``--trace-out``;
* ``reproduce`` regenerates every ``BENCH_*.json`` artifact from source.

Both serving commands run a :class:`~repro.serving.cluster.ServingCluster`.
They define their common flags once (:func:`_add_serving_flags`) and share
the builders that turn them into cluster configuration, a decorated trace
and output files.
``--help`` and the README flag tables describe each flag.
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose "unrecognized arguments" error names
    ``--router`` when it rejects the retired ``--placement`` flag."""

    def error(self, message: str):
        if "--placement" in message:
            message += ("; --placement was replaced by --router "
                        "(least_loaded -> least_queue, kv_aware -> "
                        "least_kv_pressure, score -> score)")
        super().error(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    compile_parser.add_argument("--seq-len", type=int, default=None,
                                help="prompt length (prefill mode only; "
                                     "default 64)")
    compile_parser.add_argument("--kv-len", type=int, default=None,
                                help="KV-cache length (decode mode only; "
                                     "default 256)")
    compile_parser.add_argument("--platform", choices=sorted(FPGA_PLATFORMS),
                                default="u55c")
    compile_parser.add_argument("--tile-size", type=int, default=None,
                                help="tile size of every loop (default 16)")
    compile_parser.add_argument("--unroll", type=int, default=None,
                                help="total unroll budget (default 128)")
    compile_parser.add_argument("--explore", action="store_true",
                                help="run the black-box tiling exploration, "
                                     "which picks --tile-size and --unroll")
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
        help="serve a synthetic workload through a fixed fleet of "
             "continuous-batching devices (simulation)")
    _add_serving_flags(serve_parser, requests=64)
    add = serve_parser.add_argument
    add("--devices", type=int, default=2,
        help="simulated accelerator instances (the fixed fleet size)")
    add("--no-chunked-prefill", action="store_true",
        help="give long prompts a dedicated step instead of chunking them")
    add("--watermark", type=float, nargs=2, default=None,
        metavar=("HIGH", "LOW"),
        help="KV utilization watermarks: crossing HIGH preempts down to LOW "
             "and admission stays closed until below LOW (hysteresis; "
             "default 0.95 0.80; requires --kv-capacity-mb)")
    add("--cold-start", action="store_true",
        help="charge the one-time parameter packing to the serving clock")
    add("--no-baseline", action="store_true",
        help="skip the sequential-sweep comparison")

    cluster_parser = subparsers.add_parser(
        "serve-cluster",
        help="serve a synthetic workload through a multi-replica cluster "
             "with routing and optional SLO-aware autoscaling (simulation)")
    _add_serving_flags(cluster_parser, requests=128)
    add = cluster_parser.add_argument
    add("--replicas", type=int, default=None,
        help="initial fleet size (single-device engine replicas; default 2; "
             "a disaggregated fleet is sized by --prefill-replicas + "
             "--decode-replicas instead)")
    add("--scheduler", default=None, choices=["fcfs", "priority", "score"],
        help="pick a coherent scheduling stack in one flag: admission plus "
             "its matching preemption and router (score -> lowest_score + "
             "score routing); mutually exclusive with "
             "--policy/--preemption/--router")
    add("--prefix-groups", type=_count(1), default=None,
        help="split requests round-robin into N distinct prefix groups "
             "(default 1; requires --shared-prefix; use several so --router "
             "prefix_affinity can spread groups across replicas)")
    add("--mode", default=None,
        choices=["unified", "hybrid", "disaggregated"],
        help="serving regime: unified (default; every replica serves both "
             "phases), hybrid (colocated fleet with a per-step "
             "--prefill-token-cap), or disaggregated (dedicated prefill and "
             "decode pools with a KV hand-off)")
    add("--disaggregate", action="store_true",
        help="shorthand for --mode disaggregated: arrivals prefill on one "
             "pool, then migrate (KV hand-off charged at --kv-transfer-gbs) "
             "to the other for decode")
    add("--prefill-replicas", type=int, default=None,
        help="initial prefill-pool size (default 1; requires --mode "
             "disaggregated)")
    add("--decode-replicas", type=int, default=None,
        help="initial decode-pool size (default 1; requires --mode "
             "disaggregated)")
    add("--kv-transfer-gbs", type=float, default=None,
        help="interconnect bandwidth in GB/s charged to each hand-off's KV "
             "payload (default: the platform model's achieved HBM "
             "streaming bandwidth; requires --mode disaggregated)")
    add("--kv-stream-chunks", type=int, default=None,
        help="stream each hand-off's KV in N layer-granular chunks — decode "
             "admits the request at the first chunk instead of waiting for "
             "the whole payload (default 1 = monolithic; requires --mode "
             "disaggregated)")
    add("--prefill-token-cap", type=int, default=None,
        help="max prefill tokens each engine step may spend — the "
             "hybrid-colocation knob keeping decode steps short without "
             "splitting the fleet (requires --mode hybrid)")
    add("--trace", default="poisson",
        choices=["poisson", "diurnal", "flash_crowd", "multi_turn",
                 "tool_use"],
        help="arrival process: steady Poisson, sinusoidal diurnal cycle, "
             "steady traffic with one burst window, multi-turn chat "
             "sessions growing a shared prefix between think times, or "
             "agentic tool-use loops re-entering at a fixed tool-wait "
             "cadence")
    add("--peak-rate", type=float, default=None,
        help="diurnal peak rate in requests/s (default: 4x the base rate; "
             "requires --trace diurnal)")
    add("--period", type=float, default=None,
        help="diurnal period in seconds (default 20; requires --trace "
             "diurnal)")
    add("--burst-rate", type=float, default=None,
        help="flash-crowd burst rate in requests/s (default: 8x the base "
             "rate; requires --trace flash_crowd)")
    add("--burst-start", type=float, default=None,
        help="flash-crowd burst start in seconds (default 4; requires "
             "--trace flash_crowd)")
    add("--burst-duration", type=float, default=None,
        help="flash-crowd burst duration in seconds (default 3; requires "
             "--trace flash_crowd)")
    add("--multi-turn", type=_count(1), default=None, metavar="TURNS",
        help="turns per chat session (default 4; requires --trace "
             "multi_turn; --requests then counts total turns across "
             "sessions)")
    add("--think-time", type=float, default=None, metavar="SECONDS",
        help="mean think time between a session's turns (default 1.0; "
             "requires --trace multi_turn)")
    add("--tool-calls", type=_count(0), default=None,
        help="tool-call follow-ups per agent (default 3; requires --trace "
             "tool_use; --requests then counts total requests across "
             "agents)")
    add("--tool-wait", type=float, default=None, metavar="SECONDS",
        help="fixed tool round-trip latency between an agent's turns "
             "(default 0.5; requires --trace tool_use)")
    add("--autoscale", action="store_true",
        help="let the SLO-aware control loop grow and drain the fleet "
             "between --min-replicas and --max-replicas")
    add("--slo-ttft-ms", type=float, default=None,
        help="rolling-p95 TTFT target in ms for the autoscaler (requires "
             "--autoscale)")
    add("--slo-tpot-ms", type=float, default=None,
        help="rolling-p95 TPOT target in ms — the decode pool's latency "
             "signal (requires --autoscale and --mode disaggregated)")
    add("--kv-pressure-high", type=float, default=None,
        help="mean KV-pool occupancy fraction that scales the decode pool "
             "up — its memory signal (requires --autoscale, --mode "
             "disaggregated and --kv-capacity-mb)")
    add("--min-replicas", type=int, default=None,
        help="autoscaler floor (default 1; requires --autoscale)")
    add("--max-replicas", type=int, default=None,
        help="autoscaler ceiling (default 4; requires --autoscale)")
    add("--warmup-s", type=float, default=None,
        help="warm-up seconds charged to each scaled-up replica (default: "
             "the engine's one-time parameter-packing time; requires "
             "--autoscale)")
    add("--control-interval", type=float, default=None,
        help="autoscaler control interval in simulated seconds (default "
             "0.25; requires --autoscale)")
    add("--faults", default=None, metavar="SPEC",
        help="inject a deterministic fault plan: comma-separated crash@T:R, "
             "slow@T:RxS+D and kvlink@TxS+D entries (e.g. "
             "'crash@1.5:1,slow@0.5:0x2.5+2'); crashed replicas lose their "
             "in-flight requests, which are re-dispatched with a bounded "
             "retry budget, and the report adds a faults section")
    add("--max-retries", type=int, default=None,
        help="crash-recovery budget per request before it is marked failed "
             "(default 3; requires --faults)")

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
    try:
        _require("--mode prefill", args.mode == "prefill",
                 ("--seq-len", args.seq_len))
        _require("--mode decode", args.mode == "decode",
                 ("--kv-len", args.kv_len))
    except ValueError as error:
        print(f"compile: {error}", file=sys.stderr)
        return 2
    for flag, value in (("--seq-len", args.seq_len), ("--kv-len", args.kv_len),
                        ("--tile-size", args.tile_size),
                        ("--unroll", args.unroll)):
        if value is not None and value < 1:
            print(f"compile: {flag} must be at least 1, got {value}",
                  file=sys.stderr)
            return 2
    if args.explore and (args.tile_size is not None or args.unroll is not None):
        print("compile: --explore picks the tile size and unroll budget; "
              "drop --tile-size/--unroll", file=sys.stderr)
        return 2
    config = get_model_config(args.model)
    if args.mode == "decode":
        graph = build_decode_block(
            config, kv_len=args.kv_len if args.kv_len is not None else 256)
    else:
        graph = build_prefill_block(
            config, args.seq_len if args.seq_len is not None else 64)

    sizes = {name: value for name, value in (
        ("default_tile_size", args.tile_size),
        ("overall_unroll_size", args.unroll)) if value is not None}
    options = CompilerOptions(
        platform=FPGA_PLATFORMS[args.platform],
        explore_tiling=args.explore,
        **sizes,
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


def _count(minimum: int):
    """An argparse ``type`` for an integer flag of at least ``minimum``: a
    smaller value is rejected instead of silently meaning "off"."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return count


def _add_serving_flags(parser: argparse.ArgumentParser,
                       requests: int) -> None:
    """The flags ``serve-sim`` and ``serve-cluster`` share; each command
    adds its own after these.  Per-unit limits apply per device under
    ``serve-sim`` and per replica under ``serve-cluster``."""
    add = parser.add_argument
    add("--model", choices=sorted(MODEL_CONFIGS), default="gpt2")
    add("--requests", type=int, default=requests,
        help="number of requests in the trace")
    add("--arrival-rate", type=float, default=8.0,
        help="arrival rate in requests/s (the base rate of a diurnal or "
             "flash_crowd trace)")
    add("--seed", type=int, default=0,
        help="single seed feeding every trace generator (reports are "
             "reproducible byte-for-byte per seed)")
    add("--max-batch", type=int, default=8,
        help="max concurrent requests per device or replica")
    add("--token-budget", type=int, default=256,
        help="max tokens per engine step")
    add("--router", default=None,
        choices=["round_robin", "least_queue", "least_kv_pressure",
                 "prefix_affinity", "kv_transfer_aware", "score"],
        help="routing policy dispatching each arrival to a device or "
             "replica (the prefill pool when disaggregated; default "
             "round_robin, or score under serve-cluster --scheduler score)")
    add("--policy", default=None,
        choices=["fcfs", "priority", "shortest_prompt", "score"],
        help="admission policy: who gets the next free batch slot "
             "(default fcfs)")
    add("--preemption", default=None,
        choices=["youngest", "lowest_priority", "largest_kv",
                 "lowest_score"],
        help="which resident request is evicted under KV memory pressure "
             "(default youngest)")
    add("--priority-levels", type=_count(1), default=1,
        help="sample each request's priority uniformly from [0, N); 1 keeps "
             "the single-tier trace (pairs with --policy priority / "
             "--preemption lowest_priority)")
    add("--slo-class-mix", default=None, metavar="MIX",
        help="tag requests with SLO classes drawn from a weighted mix, e.g. "
             "'interactive=1,standard=2,best_effort=1' (pairs with --policy "
             "score / --preemption lowest_score); a cluster report adds "
             "per-class attainment and a Jain fairness index")
    add("--prefix-cache", action="store_true",
        help="share ref-counted KV blocks across requests with a common "
             "prompt prefix and skip their cached prefill (requires "
             "--kv-capacity-mb)")
    add("--shared-prefix", type=_count(0), default=0, metavar="TOKENS",
        help="give every request a common prompt prefix of TOKENS tokens "
             "(capped at each prompt's length) so --prefix-cache has "
             "something to reuse")
    add("--kv-capacity-mb", type=float, default=None,
        help="KV-cache capacity in MB per device or replica; bounds "
             "admission and decode by KV blocks and preempts under memory "
             "pressure (default: unmanaged)")
    add("--block-size", type=int, default=None,
        help="token slots per KV block (default 16; requires "
             "--kv-capacity-mb)")
    add("--trace-out", type=Path, default=None, metavar="PATH",
        help="record per-request lifecycle spans and write a Chrome "
             "trace-event JSON file with one lane per device or replica "
             "(open in Perfetto; feed to 'repro trace')")
    add("--json", type=Path, default=None,
        help="also write the report as JSON")


def _require(enabler: str, enabled: bool, *flags) -> None:
    """Reject ``(flag, value)`` pairs given without ``enabler``, which
    would otherwise be silently ignored.  ``None`` and ``False`` mean the
    flag was not given."""
    given = [flag for flag, value in flags
             if value is not None and value is not False]
    if given and not enabled:
        raise ValueError(
            f"{', '.join(given)} only take(s) effect with {enabler}")


def _given(**values) -> dict:
    """The keyword arguments whose flag was given: a config built from
    them keeps its own default for every flag left out."""
    return {name: value for name, value in values.items()
            if value is not None}


def _serving_kwargs(args: argparse.Namespace, watermark=None,
                    **scheduler) -> dict:
    """The ``ServingCluster`` arguments both serving commands build from
    the shared flags: scheduler and KV-pool configs (plus the command's own
    ``SchedulerConfig`` fields in ``scheduler``), the preemption policy,
    and a tracer when ``--trace-out`` is given."""
    from repro.serving import KVCacheConfig, SchedulerConfig, Tracer

    _require("--kv-capacity-mb", args.kv_capacity_mb is not None,
             ("--prefix-cache", args.prefix_cache),
             ("--block-size", args.block_size), ("--watermark", watermark))
    kv_config = None
    if args.kv_capacity_mb is not None:
        high, low = watermark or (0.95, 0.80)
        kv_config = KVCacheConfig.from_capacity_mb(
            args.kv_capacity_mb, high_watermark=high, low_watermark=low,
            enable_prefix_cache=args.prefix_cache,
            **_given(block_size=args.block_size))
    return dict(
        scheduler_config=SchedulerConfig(
            max_batch_size=args.max_batch, token_budget=args.token_budget,
            admission=args.policy or "fcfs", **scheduler),
        kv_config=kv_config,
        preemption=args.preemption or "youngest",
        tracer=Tracer() if args.trace_out is not None else None)


def _decorated_trace(args: argparse.Namespace, generate, groups: int = 1,
                     **shape) -> List["TimedRequest"]:
    """``--requests`` arrivals at ``--arrival-rate`` from ``generate``
    (a Poisson-family generator taking ``shape``), decorated by the shared
    trace flags: priorities from ``--priority-levels``, SLO classes from
    ``--slo-class-mix``, and a ``--shared-prefix`` split round-robin into
    ``groups`` prefix groups.  One group pins all traffic to a single
    replica under ``prefix_affinity`` routing, so a fleet needs several
    to balance."""
    from repro.serving import TimedRequest

    levels = args.priority_levels
    trace = generate(args.requests, args.arrival_rate, seed=args.seed,
                     priority_choices=range(levels) if levels > 1 else None,
                     slo_class_mix=args.slo_class_mix, **shape)
    if not args.shared_prefix:
        return trace
    return [
        TimedRequest(t.request_id, t.workload, t.arrival_s,
                     priority=t.priority,
                     prefix_group="cli-shared" if groups == 1
                     else f"cli-shared-{i % groups}",
                     prefix_len=min(args.shared_prefix, t.workload.input_len),
                     slo_class=t.slo_class)
        for i, t in enumerate(trace)
    ]


def _write_outputs(args: argparse.Namespace, cluster, report,
                   **extra) -> None:
    """Write ``--trace-out`` (the cluster's spans as a Chrome trace, one
    named lane per replica) and ``--json`` (the report dict followed by
    ``extra``)."""
    from repro.serving import write_chrome_trace

    if cluster.tracer is not None:
        path = args.trace_out
        path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            path, cluster.tracer, manifest=report.manifest,
            lanes={replica.replica_id:
                   f"replica {replica.replica_id} [{replica.role.value}]"
                   for replica in cluster.replicas})
        print(f"trace written to {path} "
              "(load at https://ui.perfetto.dev, or run "
              f"'python -m repro trace summarize {path}')")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({**report.to_dict(), **extra},
                                        indent=2))
        print(f"report written to {args.json}")


def _run_serve_sim(args: argparse.Namespace) -> int:
    from repro.eval.serving import compare_with_sequential, run_sequential_baseline
    from repro.serving import ServingCluster, poisson_trace

    config = get_model_config(args.model)
    try:
        shared = _serving_kwargs(args, args.watermark,
                                 chunked_prefill=not args.no_chunked_prefill)
        trace = _decorated_trace(args, poisson_trace)
        cluster = ServingCluster(config, initial_replicas=args.devices,
                                 router=args.router or "round_robin",
                                 cold_start=args.cold_start, **shared)
    except ValueError as error:
        print(f"serve-sim: {error}", file=sys.stderr)
        return 2
    report = cluster.run(trace, manifest_extra={"seed": args.seed})
    print(report.format())

    extra = {}
    if not args.no_baseline:
        baseline = run_sequential_baseline(config, trace,
                                           cold_start=args.cold_start)
        comparison = compare_with_sequential(report, baseline)
        print(comparison.format())
        extra = {"sequential_tokens_per_s": baseline.tokens_per_s,
                 "speedup_vs_sequential": comparison.speedup}
    _write_outputs(args, cluster, report, **extra)
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
        _require(f"--trace {shape}", args.trace == shape, *flags)
    if args.trace in ("multi_turn", "tool_use"):
        # The conversational generators own their prefix declarations
        # (the accumulated per-session context) and model one tenant's
        # sessions, so the cross-cutting trace decorations don't compose.
        clashing = [flag for flag, given in
                    (("--shared-prefix", args.shared_prefix > 0),
                     ("--slo-class-mix", args.slo_class_mix is not None),
                     ("--priority-levels", args.priority_levels > 1))
                    if given]
        if clashing:
            raise ValueError(
                f"{', '.join(clashing)} cannot decorate a --trace "
                f"{args.trace} trace: conversational sessions declare "
                "their own growing prefixes")
        if args.trace == "multi_turn":
            turns = args.multi_turn if args.multi_turn is not None else 4
            return multi_turn_trace(
                max(1, args.requests // turns), turns, seed=args.seed,
                session_rate_hz=args.arrival_rate,
                think_time_s=args.think_time
                if args.think_time is not None else 1.0)
        calls = args.tool_calls if args.tool_calls is not None else 3
        return tool_use_trace(
            max(1, args.requests // (calls + 1)), calls, seed=args.seed,
            agent_rate_hz=args.arrival_rate,
            tool_wait_s=args.tool_wait if args.tool_wait is not None else 0.5)
    groups = args.prefix_groups if args.prefix_groups is not None else 1
    rate = args.arrival_rate
    if args.trace == "diurnal":
        return _decorated_trace(
            args, diurnal_trace, groups,
            peak_rate_hz=args.peak_rate
            if args.peak_rate is not None else 4.0 * rate,
            period_s=args.period if args.period is not None else 20.0)
    if args.trace == "flash_crowd":
        return _decorated_trace(
            args, flash_crowd_trace, groups,
            burst_rate_hz=args.burst_rate
            if args.burst_rate is not None else 8.0 * rate,
            burst_start_s=args.burst_start
            if args.burst_start is not None else 4.0,
            burst_duration_s=args.burst_duration
            if args.burst_duration is not None else 3.0)
    return _decorated_trace(args, poisson_trace, groups)


def _run_serve_cluster(args: argparse.Namespace) -> int:
    from repro.serving import (
        AutoscalerConfig,
        DisaggregationConfig,
        ServingCluster,
        parse_fault_spec,
    )

    config = get_model_config(args.model)
    try:
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
        mode = args.mode
        if args.disaggregate:
            if mode not in (None, "disaggregated"):
                raise ValueError(
                    "--disaggregate is shorthand for --mode "
                    f"disaggregated and contradicts --mode {mode}; "
                    "drop one of them")
            mode = "disaggregated"
        mode = mode or "unified"
        disaggregate = mode == "disaggregated"
        if mode == "hybrid" and args.prefill_token_cap is None:
            raise ValueError(
                "--mode hybrid caps per-step prefill tokens; set "
                "--prefill-token-cap")
        _require("--mode hybrid", mode == "hybrid",
                 ("--prefill-token-cap", args.prefill_token_cap))
        _require("--mode disaggregated", disaggregate,
                 ("--prefill-replicas", args.prefill_replicas),
                 ("--decode-replicas", args.decode_replicas),
                 ("--kv-transfer-gbs", args.kv_transfer_gbs),
                 ("--kv-stream-chunks", args.kv_stream_chunks),
                 ("--slo-tpot-ms", args.slo_tpot_ms),
                 ("--kv-pressure-high", args.kv_pressure_high))
        if disaggregate and args.replicas is not None:
            raise ValueError(
                "--replicas sizes a unified fleet; with --mode "
                "disaggregated use --prefill-replicas and "
                "--decode-replicas")
        _require("--autoscale", args.autoscale,
                 ("--slo-ttft-ms", args.slo_ttft_ms),
                 ("--slo-tpot-ms", args.slo_tpot_ms),
                 ("--kv-pressure-high", args.kv_pressure_high),
                 ("--min-replicas", args.min_replicas),
                 ("--max-replicas", args.max_replicas),
                 ("--warmup-s", args.warmup_s),
                 ("--control-interval", args.control_interval))
        _require("--kv-capacity-mb", args.kv_capacity_mb is not None,
                 ("--kv-pressure-high", args.kv_pressure_high))
        _require("--shared-prefix", args.shared_prefix > 0,
                 ("--prefix-groups", args.prefix_groups))
        _require("--faults", args.faults is not None,
                 ("--max-retries", args.max_retries))
        shared = _serving_kwargs(args,
                                 prefill_token_cap=args.prefill_token_cap)
        autoscaler = AutoscalerConfig(**_given(
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
            slo_ttft_s=args.slo_ttft_ms and args.slo_ttft_ms / 1e3,
            slo_tpot_s=args.slo_tpot_ms and args.slo_tpot_ms / 1e3,
            kv_pressure_high=args.kv_pressure_high,
            control_interval_s=args.control_interval,
            warmup_s=args.warmup_s)) if args.autoscale else None
        disaggregation = DisaggregationConfig(**_given(
            prefill_replicas=args.prefill_replicas,
            decode_replicas=args.decode_replicas,
            kv_transfer_gbs=args.kv_transfer_gbs,
            kv_stream_chunks=args.kv_stream_chunks)) if disaggregate else None
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
        trace = _build_cluster_trace(args)
        cluster = ServingCluster(
            config, initial_replicas=initial_replicas,
            router=args.router or "round_robin", autoscaler=autoscaler,
            disaggregation=disaggregation, fault_plan=fault_plan, **shared)
    except ValueError as error:
        print(f"serve-cluster: {error}", file=sys.stderr)
        return 2
    report = cluster.run(trace, manifest_extra={"seed": args.seed})
    print(report.format())
    _write_outputs(args, cluster, report)
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
