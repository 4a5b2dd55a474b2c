"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload builds its inputs from the seed, then repeats one unit of work
(a repetition) while ``run.py`` keeps time.  A serving repetition compiles
the design the fleet serves (GPT-2's prefill and decode blocks) and
simulates the whole trace on a fresh ``ServingCluster``; a compile
repetition compiles the eight blocks of the model zoo and evaluates each
design on one ``[128:128]`` request.  Every repetition checks its outputs
and returns the report digest, so repetitions of one seed must agree.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import (
    GPT2,
    MODEL_CONFIGS,
    CompilerOptions,
    InferenceSession,
    StreamTensorCompiler,
    Workload,
    build_decode_block,
    build_prefill_block,
)
from repro.eval.latency import FpgaPerformanceModel
from repro.serving import (
    AutoscalerConfig,
    KVCacheConfig,
    RequestState,
    SchedulerConfig,
    ServingCluster,
    diurnal_trace,
    multi_turn_trace,
    percentile,
    poisson_trace,
)

from layers import CLUSTER_MODULE, LayerClock, Patch, StepCost, resolve
from reference import reference_s

PREFILL_SEQ_LEN = 256       # the paper's characterisation prompt
DECODE_KV_LEN = 64
DESIGN_REQUEST = Workload(128, 128)
COMPILER_OPTIONS = CompilerOptions(explore_tiling=True)
# (model, block kind) pairs a serving repetition compiles: the design the
# fleet runs.  One compile takes ~0.1 s, so a repetition compiles the design
# several times and times the mean, which a single short sample's noise
# would otherwise dominate.
SERVED_BLOCKS = (("gpt2", "prefill"), ("gpt2", "decode"))
SERVED_COMPILE_ROUNDS = 3
ZOO_BLOCKS = tuple((model, kind) for model in MODEL_CONFIGS
                   for kind in ("prefill", "decode"))

# Host time is the CPU time of this process, which run.py then scales by
# the reference loop (reference.py).  The simulator and compiler are
# single-threaded and CPU-bound, so on an idle machine CPU time equals wall
# time; on a busy one it leaves out the time other processes held the CPU
# (two busy processes on a 2-vCPU VM halve each other's wall-clock speed).
host_clock = time.process_time


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True)
                          .encode()).hexdigest()


def build_graph(model: str, kind: str):
    config = MODEL_CONFIGS[model]
    if kind == "prefill":
        return build_prefill_block(config, PREFILL_SEQ_LEN)
    return build_decode_block(config, kv_len=DECODE_KV_LEN)


@dataclass
class Repetition:
    """What one repetition measured, produced and checked."""

    host_s: float                 # the timed region
    digest: str
    attempted: int
    failed: int
    problems: List[str]
    sim: Dict[str, float]         # simulated-clock and design figures
    compile_s: List[float]        # host seconds per compiled block
    stage_s: Dict[str, float] = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None
    # Reference-loop seconds taken between the compile and the timed
    # cluster run of a serving repetition (see reference.py).
    reference_mid: Optional[float] = None


# ----------------------------------------------------------------------
# Design: compile blocks, evaluate each model's design
# ----------------------------------------------------------------------
def compile_blocks(graphs) -> Tuple[list, List[float], Dict[str, float],
                                    List[str], Set[Tuple[str, str]]]:
    """Compile ``graphs`` (a list of (model, kind, graph)); returns the
    results, host seconds per block, summed stage seconds, problems and
    the (model, kind) of each block that failed its check."""
    results, block_s, problems = [], [], []
    stages: Dict[str, float] = {}
    failed: Set[Tuple[str, str]] = set()
    for model, kind, graph in graphs:
        compiler = StreamTensorCompiler(COMPILER_OPTIONS)
        start = host_clock()
        result = compiler.compile(graph, MODEL_CONFIGS[model])
        block_s.append(host_clock() - start)
        for stage, seconds in result.stage_seconds.items():
            stages[stage] = stages.get(stage, 0.0) + seconds
        report = result.report
        sizing = result.fifo_sizing
        issues = []
        if report.num_fused_groups < 1:
            issues.append("no fused group")
        if not report.fits_on_chip:
            issues.append("fused intermediates exceed on-chip memory")
        if sizing is None or sizing.lp_status != "optimal":
            issues.append("FIFO sizing LP status "
                          f"{getattr(sizing, 'lp_status', None)!r}")
        if result.hls is None or report.hls_lines <= 0:
            issues.append("empty HLS output")
        if issues:
            failed.add((model, kind))
            problems.append(f"{model}/{kind}: " + "; ".join(issues))
        results.append((model, kind, result))
    return results, block_s, stages, problems, failed


def evaluate_designs(results) -> Tuple[Dict[str, float], Dict[str, dict],
                                       List[str], List[str]]:
    """Evaluate each compiled model's design on the ``[128:128]`` request.

    The latency comes from ``FpgaPerformanceModel.evaluate`` with the
    prefill block's fused intermediate bytes (as the paper's experiments
    do); the same request simulated step by step through
    ``InferenceSession.generate`` on that design must agree with it.
    Returns the design metrics, per-model figures, problems and the
    (model, kind) of every block of a model whose check failed."""
    model = FpgaPerformanceModel()
    prefill = {name: result for name, kind, result in results
               if kind == "prefill"}
    per_model: Dict[str, dict] = {}
    problems: List[str] = []
    bad: Set[Tuple[str, str]] = set()
    for name, result in prefill.items():
        config = MODEL_CONFIGS[name]
        breakdown = model.evaluate(config, DESIGN_REQUEST,
                                   result.report.intermediate_bytes_fused)
        generated = InferenceSession(config, compiled=result,
                                     performance_model=model
                                     ).generate(DESIGN_REQUEST)
        if not math.isclose(generated.total_seconds, breakdown.latency_s,
                            rel_tol=1e-9) \
                or not math.isclose(generated.ttft_s, breakdown.ttft_s,
                                    rel_tol=1e-9):
            problems.append(f"{name}: generate() disagrees with evaluate()")
            bad.update((model, kind) for model, kind, _ in results
                       if model == name)
        per_model[name] = {
            "latency_ms": breakdown.latency_ms,
            "ttft_ms": breakdown.ttft_ms,
            "tpot_ms": breakdown.decode_time_s * 1e3
            / (DESIGN_REQUEST.output_len - 1),
        }
    latencies = [m["latency_ms"] for m in per_model.values()]
    onchip = sum(result.report.intermediate_bytes_fused
                 for _, _, result in results)
    design = {
        "design_latency_ms": math.exp(sum(map(math.log, latencies))
                                      / len(latencies)),
        "design_onchip_mb": onchip / 1e6,
    }
    return design, per_model, problems, bad


def design_digest(results, per_model) -> str:
    reports = []
    for model, kind, result in results:
        fields = asdict(result.report)
        fields.pop("stage_seconds")   # host time, not output
        reports.append([model, kind, fields])
    return digest([sorted(reports), per_model])


def compiler_counts(results) -> Dict[str, float]:
    """Design statistics summed over one repetition's blocks."""
    reports = [result.report for _, _, result in results]
    return {
        "compiler.kernels": sum(r.num_kernels for r in reports),
        "compiler.stream_edges": sum(r.num_stream_edges for r in reports),
        "compiler.converters": sum(r.num_converters for r in reports),
        "compiler.fifo_kb": sum(r.fifo_bytes for r in reports) / 1e3,
        "compiler.hls_lines": sum(r.hls_lines for r in reports),
    }


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingWorkload:
    make_trace: Callable[[int], list]
    make_cluster: Callable[[], ServingCluster]

    def setup(self):
        """Construction a user pays before the first request."""
        return self.make_cluster()

    def inputs(self, seed: int):
        graphs = [(model, kind, build_graph(model, kind))
                  for model, kind in SERVED_BLOCKS]
        return self.make_trace(seed), graphs

    def repeat(self, inputs, clock: Optional[LayerClock] = None,
               cost: Optional[StepCost] = None) -> Repetition:
        trace, graphs = inputs
        results, compile_s, stages, problems, bad_blocks = \
            compile_blocks(graphs * SERVED_COMPILE_ROUNDS)
        results = results[:len(graphs)]
        stages = {stage: seconds / SERVED_COMPILE_ROUNDS
                  for stage, seconds in stages.items()}
        design, per_model, design_problems, bad_designs = \
            evaluate_designs(results)
        problems += design_problems
        reference_mid = reference_s()

        cluster = self.make_cluster()
        captured: List[list] = []
        with Patch() as patch:
            # The request objects carry the per-request outcomes the
            # report only summarises; observe the list the run builds.
            target = resolve(CLUSTER_MODULE, "requests_from_trace")
            if target is not None:
                module, name, from_trace = target

                def capture(trace_arg):
                    requests = from_trace(trace_arg)
                    captured.append(requests)
                    return requests

                patch.replace(module, name, capture)
            if clock is not None:
                clock.install(patch)
            gc.collect()
            start = host_clock()
            report = cluster.run(trace)
            host_s = host_clock() - start

        serving_problems = check_serving(report, trace, captured,
                                         observed=target is not None)
        problems += serving_problems
        failed = report.rejected + report.failed
        if serving_problems:
            failed = report.num_requests
        failed += len(bad_blocks | bad_designs)
        sim = {
            "completed": report.completed,
            "total_output_tokens": report.total_output_tokens,
            "model_ttft_ms_p50": report.ttft.p50 * 1e3,
            "model_ttft_ms_p99": report.ttft.p99 * 1e3,
            "model_tpot_ms_p50": report.tpot.p50 * 1e3,
            "model_tpot_ms_p99": report.tpot.p99 * 1e3,
            "model_tokens_per_s": report.fleet_tokens_per_s,
            **design,
        }
        layers = None
        if clock is not None:
            layers = serving_layer_figures(report, cost)
            layers.update(compiler_counts(results))
        return Repetition(
            host_s=host_s,
            digest=digest([report.to_dict(),
                           design_digest(results, per_model)]),
            attempted=report.num_requests + len(graphs),
            failed=failed, problems=problems, sim=sim,
            compile_s=compile_s, stage_s=stages, layers=layers,
            reference_mid=reference_mid)


def check_serving(report, trace, captured, observed: bool) -> List[str]:
    """Conservation, token accounting and per-request latency order.

    ``observed`` is false when the program no longer builds its request
    list through ``requests_from_trace``; only the report-level checks
    run then."""
    problems = []
    if report.num_requests != len(trace):
        problems.append(f"report covers {report.num_requests} of "
                        f"{len(trace)} requests")
    if report.completed + report.rejected + report.failed \
            != report.num_requests:
        problems.append("completed + rejected + failed != num_requests")
    if not observed:
        return problems
    if len(captured) != 1:
        problems.append("request list not observed")
        return problems
    finished = [r for r in captured[0] if r.state is RequestState.FINISHED]
    if len(finished) != report.completed:
        problems.append(f"{len(finished)} finished requests, report says "
                        f"{report.completed}")
    expected = sum(r.workload.output_len for r in finished)
    if report.total_output_tokens != expected:
        problems.append(f"total_output_tokens {report.total_output_tokens}"
                        f" != {expected} summed over completed requests")
    late = sum(1 for r in finished if r.ttft_s > r.e2e_latency_s)
    if late:
        problems.append(f"{late} requests with TTFT > e2e latency")
    return problems


def serving_layer_figures(report, cost: StepCost) -> Dict[str, float]:
    kv_peaks = [device.kv_peak_blocks / device.kv_blocks_total
                for replica in report.replica_reports
                for device in replica.devices if device.kv_blocks_total]
    figures = {
        "autoscaler.peak_replicas": report.peak_replicas,
        "autoscaler.replica_seconds": report.replica_seconds,
        "kv.preemptions": report.preemptions,
        "kv.prefix_hit_rate": report.prefix_hit_rate,
        "kv.peak_block_share": max(kv_peaks, default=0.0),
        "scheduler.queue_wait_ms_p99": report.queue_wait.p99 * 1e3,
    }
    figures.update(cost.metrics(report.replica_seconds))
    return figures


def _decode_saturated_trace(seed: int) -> list:
    return poisson_trace(5000, 400.0, seed=seed, input_choices=(128, 512),
                         output_choices=(128,))


def _decode_saturated_cluster() -> ServingCluster:
    return ServingCluster(GPT2, initial_replicas=50, router="round_robin",
                          scheduler_config=SchedulerConfig(
                              max_batch_size=64, token_budget=4096))


def _chat_kv_trace(seed: int) -> list:
    return multi_turn_trace(800, 4, seed=seed, session_rate_hz=5.0,
                            think_time_s=2.0, turn_input_choices=(64, 128),
                            output_choices=(64, 128))


def _chat_kv_cluster() -> ServingCluster:
    # The floor of 12 replicas keeps sessions from being pinned to a few
    # overloaded replicas during the start-up ramp; below it the TTFT
    # tail is set by that transient and swings ~40% from seed to seed.
    return ServingCluster(
        GPT2, initial_replicas=12, router="prefix_affinity",
        scheduler_config=SchedulerConfig(max_batch_size=32,
                                         token_budget=1024),
        kv_config=KVCacheConfig.from_capacity_mb(200.0,
                                                 enable_prefix_cache=True),
        autoscaler=AutoscalerConfig(min_replicas=12, max_replicas=16,
                                    slo_ttft_s=0.5))


def _short_burst_trace(seed: int) -> list:
    return diurnal_trace(100_000, 2000.0, 8000.0, period_s=60.0, seed=seed,
                         input_choices=(16, 32), output_choices=(2, 4))


# ----------------------------------------------------------------------
# Compile workload
# ----------------------------------------------------------------------
class CompileZoo:
    def setup(self):
        """Graph construction for every block of the zoo."""
        return [(model, kind, build_graph(model, kind))
                for model, kind in ZOO_BLOCKS]

    def inputs(self, seed: int):
        graphs = self.setup()
        random.Random(seed).shuffle(graphs)
        return graphs

    def repeat(self, graphs, clock: Optional[LayerClock] = None,
               cost: Optional[StepCost] = None) -> Repetition:
        gc.collect()
        start = host_clock()
        results, compile_s, stages, problems, bad_blocks = \
            compile_blocks(graphs)
        design, per_model, design_problems, bad_designs = \
            evaluate_designs(results)
        host_s = host_clock() - start
        problems += design_problems
        requests = len(per_model)
        output_tokens = requests * DESIGN_REQUEST.output_len
        ttfts = [m["ttft_ms"] for m in per_model.values()]
        tpots = [m["tpot_ms"] for m in per_model.values()]
        sim = {
            "completed": requests,
            "total_output_tokens": output_tokens,
            "model_ttft_ms_p50": percentile(ttfts, 50),
            "model_ttft_ms_p99": percentile(ttfts, 99),
            "model_tpot_ms_p50": percentile(tpots, 50),
            "model_tpot_ms_p99": percentile(tpots, 99),
            "model_tokens_per_s": output_tokens * 1e3
            / sum(m["latency_ms"] for m in per_model.values()),
            **design,
        }
        layers = compiler_counts(results) if clock is not None else None
        return Repetition(
            host_s=host_s, digest=design_digest(results, per_model),
            attempted=len(graphs), failed=len(bad_blocks | bad_designs),
            problems=problems, sim=sim, compile_s=compile_s, stage_s=stages,
            layers=layers)



WORKLOADS = {
    "decode_saturated": ServingWorkload(_decode_saturated_trace,
                                        _decode_saturated_cluster),
    "chat_kv": ServingWorkload(_chat_kv_trace, _chat_kv_cluster),
    # The same 50-replica fleet as decode_saturated; only the trace differs.
    "short_burst": ServingWorkload(_short_burst_trace,
                                   _decode_saturated_cluster),
    "compile_zoo": CompileZoo(),
}
