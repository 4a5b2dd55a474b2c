"""The repository benchmark: one workload per process, metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decode_saturated --seed 1 \\
        --seconds 25 --trace 0

The workload's inputs come from ``--seed``.  Repetitions of the workload
run within ``--seconds`` of wall time (at least one runs), and host-clock
figures are medians over them.  Host time is the CPU time of the
benchmark process (see ``workloads.host_clock``), scaled by a reference
loop timed beside it (see ``reference.py``).  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` untraced and
traced repetitions alternate and it holds the per-layer metrics.  Earlier
lines summarise the run for a reader.  ``perfbench/spec.json`` records the
seeds, why each workload exists, and the clock of every metric.

Exit code 2, without a result line, when the checkout holds no ``repro``
source tree.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from reference import REFERENCE_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SETUP_PROBES = 3     # fresh set-up processes per run; the median is reported

END_TO_END_UNITS = {
    "sim_tokens_per_s": "tok/s",
    "sim_requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "model_ttft_ms_p50": "sim_ms",
    "model_ttft_ms_p99": "sim_ms",
    "model_tpot_ms_p50": "sim_ms",
    "model_tpot_ms_p99": "sim_ms",
    "model_tokens_per_s": "tok/sim_s",
    "ok_share": "share",
    "compile_s": "s",
    "design_latency_ms": "sim_ms",
    "design_onchip_mb": "MB",
}

COMPILER_STAGES = ("Linalg_Opt", "Linalg_Tiling", "Kernel_Fusion",
                   "Dataflow_Opt", "Resource_Alloc", "Bufferization",
                   "HLS_Opt", "Code_Gen")

LAYER_FIGURE_UNITS = {
    "autoscaler.peak_replicas": "count",
    "autoscaler.replica_seconds": "sim_s",
    "kv.preemptions": "count",
    "kv.prefix_hit_rate": "share",
    "kv.peak_block_share": "share",
    "scheduler.queue_wait_ms_p99": "sim_ms",
    "hw.steps": "count",
    "hw.slices_per_step": "slice/step",
    "hw.prefill_token_share": "share",
    "hw.busy_share": "share",
    "hw.compute_bound_share": "share",
    "hw.bytes_per_token": "B/tok",
    "compiler.kernels": "count",
    "compiler.stream_edges": "count",
    "compiler.converters": "count",
    "compiler.fifo_kb": "KB",
    "compiler.hls_lines": "lines",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str) -> float:
    """Median host time from process start to ready-to-run, over fresh
    processes (the median also discards the one slow first start of a
    new checkout, which writes the bytecode caches)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        setup, reference = map(float, done.stdout.split()[-2:])
        samples.append(setup * REFERENCE_S / reference)
    return statistics.median(samples)


def rescaled(rep, reference: float, compile_reference: float):
    """``rep`` with its host times scaled to a machine on which the
    reference loop takes :data:`REFERENCE_S`, given the reference seconds
    measured around its timed region and around its compiles."""
    rep.host_s *= REFERENCE_S / reference
    rep.compile_s = [seconds * REFERENCE_S / compile_reference
                     for seconds in rep.compile_s]
    return rep


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_of(reps, figure) -> float:
    return statistics.median(figure(rep) for rep in reps)


def end_to_end(reps, setup_s: float, attempted: int, failed: int) -> dict:
    first = reps[0].sim
    values = {
        "sim_tokens_per_s": median_of(
            reps, lambda r: r.sim["total_output_tokens"] / r.host_s),
        "sim_requests_per_s": median_of(
            reps, lambda r: r.sim["completed"] / r.host_s),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
        "ok_share": 1.0 - failed / attempted,
        "compile_s": median_of(
            reps, lambda r: statistics.fmean(r.compile_s)),
    }
    for name in ("model_ttft_ms_p50", "model_ttft_ms_p99",
                 "model_tpot_ms_p50", "model_tpot_ms_p99",
                 "model_tokens_per_s", "design_latency_ms",
                 "design_onchip_mb"):
        values[name] = first[name]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(untraced, traced) -> dict:
    """Per-layer metrics from the traced repetitions (medians), plus the
    compiler stage split of every repetition."""
    metrics = {}
    clocks = [clock for _, clock in traced]
    for layer in layers.LAYERS:
        calls = [clock.calls.get(layer, 0) for clock in clocks]
        metrics[f"{layer}.calls"] = (statistics.median(calls), "count")
        metrics[f"{layer}.self_s"] = (statistics.median(
            clock.self_s.get(layer, 0.0) for clock in clocks), "s")
    metrics["cluster.run.total_s"] = (statistics.median(
        clock.total_s.get("cluster.run", 0.0) for clock in clocks), "s")
    reps = untraced + [rep for rep, _ in traced]
    for stage in COMPILER_STAGES:
        metrics[f"compiler.{stage}_s"] = (median_of(
            reps, lambda r: r.stage_s.get(stage, 0.0)), "s")
    for name, unit in LAYER_FIGURE_UNITS.items():
        metrics[name] = (statistics.median(
            rep.layers.get(name, 0.0) for rep, _ in traced), unit)
    metrics["trace.overhead_share"] = (
        median_of([rep for rep, _ in traced], lambda r: r.host_s)
        / median_of(untraced, lambda r: r.host_s) - 1.0, "share")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def layer_checks(traced) -> list:
    """Confirm the traced split adds up, and print where host time went."""
    problems = []
    for _, clock in traced:
        total = clock.total_s.get("cluster.run", 0.0)
        self_sum = sum(clock.self_s.values())
        if not math.isclose(self_sum, total, rel_tol=1e-6):
            problems.append(f"layer self times sum to {self_sum:.6f}s, "
                            f"cluster.run took {total:.6f}s")
    _, clock = traced[len(traced) // 2]
    total = clock.total_s.get("cluster.run", 0.0)
    if clock.absent:
        print(f"absent layers (reported as 0): {', '.join(clock.absent)}")
    if total <= 0:
        return problems
    print(f"traced cluster.run {total:.3f}s; share of it by layer:")
    for layer, seconds in sorted(clock.self_s.items(),
                                 key=lambda item: -item[1]):
        print(f"  {layer:24s} {seconds / total:6.1%}  "
              f"{clock.calls[layer]:>10,d} calls")
    hot = sum(clock.self_s.get(layer, 0.0) for layer in (
        "session.record", "session.execute_step", "scheduler.plan_step"))
    per_request = sum(clock.self_s.get(layer, 0.0)
                      for layer in layers.PER_REQUEST_LAYERS)
    print(f"  record + execute_step + plan_step: {hot / total:.1%}; "
          f"per-request layers: {per_request / total:.1%}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {SOURCE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import GPT2, WORKLOADS, FpgaPerformanceModel

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup_s = setup_seconds(args.workload) if not args.trace else None
    inputs = workload.inputs(args.seed)

    # Repeat while the next repetition, as long as the median one so far,
    # still ends inside the window; the first always runs.  Each
    # repetition's host times are scaled by the reference loop timed on
    # either side of it.
    untraced, traced, walls = [], [], []
    references = [reference_s()]

    def measured(rep):
        before, after = references[-1], reference_s()
        references.append(after)
        # A serving repetition also read the reference between its compile
        # and its cluster run; each phase takes the readings around it.
        mid = rep.reference_mid
        if mid is None:
            return rescaled(rep, (before + after) / 2, (before + after) / 2)
        return rescaled(rep, (mid + after) / 2, (before + mid) / 2)

    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        untraced.append(measured(workload.repeat(inputs)))
        if args.trace:
            cost = layers.StepCost(GPT2, FpgaPerformanceModel())
            clock = layers.LayerClock(cost.observers())
            traced.append((measured(workload.repeat(inputs, clock, cost)),
                           clock))
        now = time.perf_counter()
        walls.append(now - begun)
        if now - start + statistics.median(walls) > args.seconds:
            break

    reps = untraced + [rep for rep, _ in traced]
    problems = [problem for rep in reps for problem in rep.problems]
    digests = {rep.digest for rep in reps}
    if len(digests) != 1:
        problems.append(f"{len(digests)} distinct report digests across "
                        "repetitions of one seed")
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} "
          f"untraced + {len(traced)} traced repetitions")
    print(f"report sha256 {reps[0].digest}")
    print("host seconds per repetition: "
          + " ".join(f"{rep.host_s:.3f}" for rep in untraced))
    print("reference loop CPU seconds: "
          + " ".join(f"{seconds:.3f}" for seconds in references))
    if traced:
        problems += layer_checks(traced)
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, setup_s, attempted, failed)
    for problem in sorted(set(problems)):
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
