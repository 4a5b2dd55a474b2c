"""Experiment drivers: one function per table / figure of the evaluation.

Every function regenerates the corresponding paper artefact from this
reproduction's own compiler and models and returns structured rows (plus a
``format_*`` helper that prints them the way the paper lays them out).  The
benchmarks under ``benchmarks/`` call these functions directly.

Absolute numbers come from analytical models of the FPGA and GPUs rather
than hardware measurement, so they are not expected to match the paper
exactly; the comparisons (who wins, by roughly what factor) are the
reproduction target — see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.compiler.options import CompilerOptions
from repro.compiler.pipeline import CompilationResult, StreamTensorCompiler
from repro.eval.baselines import (
    a100_model,
    published_baseline,
    rtx2080ti_model,
)
from repro.eval.energy import EnergyComparison, compare_energy
from repro.eval.latency import (
    FpgaPerformanceModel,
    LatencyBreakdown,
)
from repro.models.config import GEMMA, GPT2, LLAMA, MODEL_CONFIGS, QWEN, ModelConfig
from repro.models.transformer import build_prefill_block
from repro.models.workload import FIGURE9_WORKLOADS, TABLE4_WORKLOADS, Workload
from repro.platform.hls_profiler import HlsProfiler, parameter_packing_seconds

# Sequence length used to characterise the compiled block (Figure 10 studies
# a single LLM layer; 256 matches the longest workload in Table 4).
CHARACTERIZATION_SEQ_LEN = 256


@dataclass
class ExperimentContext:
    """Caches compiled designs so experiments do not recompile per workload."""

    options: CompilerOptions = field(default_factory=CompilerOptions)
    fpga_model: FpgaPerformanceModel = field(default_factory=FpgaPerformanceModel)
    _compiled: Dict[str, CompilationResult] = field(default_factory=dict)

    def compiled(self, config: ModelConfig,
                 seq_len: int = CHARACTERIZATION_SEQ_LEN) -> CompilationResult:
        key = f"{config.name}_{seq_len}"
        if key not in self._compiled:
            graph = build_prefill_block(config, seq_len)
            compiler = StreamTensorCompiler(self.options)
            self._compiled[key] = compiler.compile(graph, config)
        return self._compiled[key]

    def intermediate_bytes(self, config: ModelConfig) -> float:
        return self.compiled(config).report.intermediate_bytes_fused

    def evaluate_ours(self, config: ModelConfig,
                      workload: Workload) -> LatencyBreakdown:
        return self.fpga_model.evaluate(config, workload,
                                        self.intermediate_bytes(config))


# ----------------------------------------------------------------------
# Table 4: GPT-2 vs Allo and DFX
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table4Row:
    """One row of Table 4."""

    workload_label: str
    ours_latency_ms: float
    ours_ttft_ms: float
    ours_speed: float
    allo_latency_ms: float
    allo_ttft_ms: float
    allo_speed: float
    dfx_latency_ms: float
    dfx_ttft_ms: float
    dfx_speed: float

    @property
    def latency_ratio_vs_allo(self) -> float:
        return self.ours_latency_ms / self.allo_latency_ms

    @property
    def ttft_ratio_vs_allo(self) -> float:
        return self.ours_ttft_ms / self.allo_ttft_ms

    @property
    def speed_ratio_vs_allo(self) -> float:
        return self.ours_speed / self.allo_speed

    @property
    def latency_ratio_vs_dfx(self) -> float:
        return self.ours_latency_ms / self.dfx_latency_ms

    @property
    def ttft_ratio_vs_dfx(self) -> float:
        return self.ours_ttft_ms / self.dfx_ttft_ms

    @property
    def speed_ratio_vs_dfx(self) -> float:
        return self.ours_speed / self.dfx_speed


def run_table4(context: Optional[ExperimentContext] = None,
               workloads: Optional[Sequence[Workload]] = None) -> List[Table4Row]:
    """Regenerate Table 4 (GPT-2 vs the Allo and DFX FPGA accelerators)."""
    context = context or ExperimentContext()
    rows = []
    for workload in workloads or TABLE4_WORKLOADS:
        ours = context.evaluate_ours(GPT2, workload)
        allo = published_baseline("allo", workload)
        dfx = published_baseline("dfx", workload)
        rows.append(Table4Row(
            workload_label=workload.label,
            ours_latency_ms=ours.latency_ms,
            ours_ttft_ms=ours.ttft_ms,
            ours_speed=ours.decode_speed_tokens_per_s,
            allo_latency_ms=allo.latency_ms,
            allo_ttft_ms=allo.ttft_ms,
            allo_speed=allo.speed_tokens_per_s,
            dfx_latency_ms=dfx.latency_ms,
            dfx_ttft_ms=dfx.ttft_ms,
            dfx_speed=dfx.speed_tokens_per_s,
        ))
    return rows


def format_table4(rows: Sequence[Table4Row]) -> str:
    lines = [
        "Table 4: GPT-2 vs FPGA baselines "
        "(latency ms / TTFT ms / speed tok/s, ratios = ours/baseline)",
        f"{'workload':>12} | {'ours':>24} | {'vs Allo':>22} | {'vs DFX':>22}",
    ]
    for row in rows:
        ours = (f"{row.ours_latency_ms:8.1f} {row.ours_ttft_ms:7.1f} "
                f"{row.ours_speed:7.1f}")
        allo = (f"{row.latency_ratio_vs_allo:5.2f}x {row.ttft_ratio_vs_allo:5.2f}x "
                f"{row.speed_ratio_vs_allo:5.2f}x")
        dfx = (f"{row.latency_ratio_vs_dfx:5.2f}x {row.ttft_ratio_vs_dfx:5.2f}x "
               f"{row.speed_ratio_vs_dfx:5.2f}x")
        lines.append(f"{row.workload_label:>12} | {ours:>24} | {allo:>22} | {dfx:>22}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 5: GPT-2 vs GPUs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table5Row:
    """One row of Table 5."""

    workload_label: str
    ours: LatencyBreakdown
    a100: LatencyBreakdown
    rtx2080ti: LatencyBreakdown

    @property
    def latency_ratio_vs_a100(self) -> float:
        return self.ours.latency_ms / self.a100.latency_ms

    @property
    def ttft_ratio_vs_a100(self) -> float:
        return self.ours.ttft_ms / self.a100.ttft_ms

    @property
    def speed_ratio_vs_a100(self) -> float:
        return (self.ours.decode_speed_tokens_per_s
                / self.a100.decode_speed_tokens_per_s)

    @property
    def latency_ratio_vs_2080ti(self) -> float:
        return self.ours.latency_ms / self.rtx2080ti.latency_ms

    @property
    def speed_ratio_vs_2080ti(self) -> float:
        return (self.ours.decode_speed_tokens_per_s
                / self.rtx2080ti.decode_speed_tokens_per_s)


def run_table5(context: Optional[ExperimentContext] = None,
               workloads: Optional[Sequence[Workload]] = None) -> List[Table5Row]:
    """Regenerate Table 5 (GPT-2 vs the A100 and 2080Ti GPUs)."""
    context = context or ExperimentContext()
    a100 = a100_model()
    rtx = rtx2080ti_model()
    rows = []
    for workload in workloads or TABLE4_WORKLOADS:
        rows.append(Table5Row(
            workload_label=workload.label,
            ours=context.evaluate_ours(GPT2, workload),
            a100=a100.evaluate(GPT2, workload),
            rtx2080ti=rtx.evaluate(GPT2, workload),
        ))
    return rows


def format_table5(rows: Sequence[Table5Row]) -> str:
    lines = [
        "Table 5: GPT-2 vs GPUs (ratios = ours/baseline; latency & TTFT lower "
        "is better, speed higher is better)",
        f"{'workload':>12} | {'ours lat/ttft/speed':>26} | {'vs A100':>22} | "
        f"{'vs 2080Ti':>16}",
    ]
    for row in rows:
        ours = (f"{row.ours.latency_ms:8.1f} {row.ours.ttft_ms:7.1f} "
                f"{row.ours.decode_speed_tokens_per_s:7.1f}")
        a100 = (f"{row.latency_ratio_vs_a100:5.2f}x {row.ttft_ratio_vs_a100:6.2f}x "
                f"{row.speed_ratio_vs_a100:5.2f}x")
        rtx = f"{row.latency_ratio_vs_2080ti:5.2f}x {row.speed_ratio_vs_2080ti:5.2f}x"
        lines.append(f"{row.workload_label:>12} | {ours:>26} | {a100:>22} | {rtx:>16}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 9: energy efficiency on emerging LLMs
# ----------------------------------------------------------------------
def run_figure9(context: Optional[ExperimentContext] = None,
                models: Optional[Sequence[ModelConfig]] = None,
                workloads: Optional[Sequence[Workload]] = None,
                ) -> Dict[str, List[EnergyComparison]]:
    """Regenerate Figure 9: tokens/J vs the A100 for Qwen, Llama and Gemma."""
    context = context or ExperimentContext()
    a100 = a100_model()
    results: Dict[str, List[EnergyComparison]] = {}
    for config in models or (QWEN, LLAMA, GEMMA):
        comparisons = []
        for workload in workloads or FIGURE9_WORKLOADS:
            ours = context.evaluate_ours(config, workload)
            baseline = a100.evaluate(config, workload)
            comparisons.append(compare_energy(ours, baseline))
        results[config.name] = comparisons
    return results


def format_figure9(results: Dict[str, List[EnergyComparison]]) -> str:
    lines = ["Figure 9: energy efficiency (tokens/J) vs A100"]
    for model, comparisons in results.items():
        lines.append(f"  {model}:")
        for comparison in comparisons:
            lines.append(
                f"    {comparison.workload_label:>10}  ours "
                f"{comparison.ours_tokens_per_joule:6.3f}  A100 "
                f"{comparison.baseline_tokens_per_joule:6.3f}  ratio "
                f"{comparison.ratio:5.2f}x"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 10a: on-chip memory reduction from kernel fusion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure10aRow:
    """Memory reduction for one model (one transformer layer)."""

    model: str
    original_mb: float
    fused_mb: float

    @property
    def ratio(self) -> float:
        return self.fused_mb / self.original_mb if self.original_mb else 1.0


def run_figure10a(context: Optional[ExperimentContext] = None,
                  models: Optional[Sequence[ModelConfig]] = None,
                  ) -> List[Figure10aRow]:
    """Regenerate Figure 10a: intermediate-result memory before/after fusion."""
    context = context or ExperimentContext()
    rows = []
    for config in models or (GPT2, QWEN, LLAMA, GEMMA):
        report = context.compiled(config).report
        rows.append(Figure10aRow(
            model=config.name,
            original_mb=report.intermediate_bytes_unfused / 1e6,
            fused_mb=report.intermediate_bytes_fused / 1e6,
        ))
    return rows


def format_figure10a(rows: Sequence[Figure10aRow]) -> str:
    lines = ["Figure 10a: intermediate-result memory (MB), one transformer layer"]
    for row in rows:
        lines.append(f"  {row.model:>6}: original {row.original_mb:6.2f}  "
                     f"fused {row.fused_mb:5.2f}  ({row.ratio * 100:4.1f}%)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 10b: RTL generation time breakdown
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure10bRow:
    """RTL-generation wall-clock breakdown for one model (seconds)."""

    model: str
    hls_seconds: float
    profiling_seconds: float
    param_packing_seconds: float
    streamtensor_seconds: float

    @property
    def total_seconds(self) -> float:
        return (self.hls_seconds + self.profiling_seconds
                + self.param_packing_seconds + self.streamtensor_seconds)


def run_figure10b(context: Optional[ExperimentContext] = None,
                  models: Optional[Sequence[ModelConfig]] = None,
                  ) -> List[Figure10bRow]:
    """Regenerate Figure 10b: PyTorch-to-RTL generation time breakdown.

    The vendor-tool times (HLS synthesis, profiling) come from the analytical
    runtime model in :class:`~repro.platform.hls_profiler.HlsProfiler`; the
    StreamTensor compilation time is measured for real.
    """
    context = context or ExperimentContext()
    profiler = HlsProfiler(context.options.platform)
    rows = []
    for config in models or (GPT2, QWEN, LLAMA, GEMMA):
        result = context.compiled(config)
        graph = result.dataflow_graph
        weight_bytes = config.total_params() \
            * context.options.platform.quantization.weight_bits / 8.0
        rows.append(Figure10bRow(
            model=config.name,
            hls_seconds=profiler.estimate_hls_synthesis_seconds(graph),
            profiling_seconds=profiler.estimate_profiling_seconds(graph),
            param_packing_seconds=parameter_packing_seconds(weight_bytes),
            streamtensor_seconds=sum(result.report.stage_seconds.values()),
        ))
    return rows


def format_figure10b(rows: Sequence[Figure10bRow]) -> str:
    lines = ["Figure 10b: RTL generation time breakdown (seconds)"]
    for row in rows:
        lines.append(
            f"  {row.model:>6}: HLS {row.hls_seconds:7.1f}  profiling "
            f"{row.profiling_seconds:7.1f}  packing {row.param_packing_seconds:5.1f}  "
            f"StreamTensor {row.streamtensor_seconds:5.2f}  total "
            f"{row.total_seconds:7.1f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 10c: StreamTensor compile-time breakdown
# ----------------------------------------------------------------------
# Fresh compiles per model that Figure 10c takes each stage's time from.
FIGURE10C_COMPILES = 3


def run_figure10c(context: Optional[ExperimentContext] = None,
                  models: Optional[Sequence[ModelConfig]] = None,
                  ) -> Dict[str, Dict[str, float]]:
    """Regenerate Figure 10c: per-stage compile time for every model.

    Each stage's time is its minimum over ``FIGURE10C_COMPILES`` fresh
    compiles of the model's characterisation block.  A block compiles in
    milliseconds, so one wall-clock sample moves with whatever else runs
    on the CPU; the minimum is the least disturbed sample of each stage.
    """
    context = context or ExperimentContext()
    breakdowns = {}
    for config in models or (GPT2, QWEN, LLAMA, GEMMA):
        stages: Dict[str, float] = {}
        for _ in range(FIGURE10C_COMPILES):
            graph = build_prefill_block(config, CHARACTERIZATION_SEQ_LEN)
            result = StreamTensorCompiler(context.options).compile(graph,
                                                                   config)
            for name, seconds in result.report.stage_seconds.items():
                stages[name] = min(seconds, stages.get(name, seconds))
        breakdowns[config.name] = stages
    return breakdowns


def format_figure10c(breakdowns: Dict[str, Dict[str, float]]) -> str:
    lines = ["Figure 10c: StreamTensor compilation time breakdown (seconds)"]
    for model, stages in breakdowns.items():
        total = sum(stages.values())
        detail = "  ".join(f"{name}={seconds:.3f}" for name, seconds in stages.items()
                           if seconds > 0)
        lines.append(f"  {model:>6}: total {total:.3f}s  ({detail})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Tables 6 and 7 (setup tables)
# ----------------------------------------------------------------------
def run_table7() -> Dict[str, Dict[str, object]]:
    """Regenerate Table 7: the evaluated LLM configurations."""
    rows = {}
    for name, config in MODEL_CONFIGS.items():
        rows[name] = {
            "layers": config.num_layers,
            "hidden_size": config.hidden_size,
            "ffn_hidden_size": config.ffn_hidden_size,
            "attention_heads": config.num_heads,
            "kv_heads": config.num_kv_heads,
            "activation": config.activation.upper(),
        }
    return rows
