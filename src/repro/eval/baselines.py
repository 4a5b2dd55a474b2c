"""Baseline accelerators compared against in the paper's evaluation.

Two kinds of baselines appear:

* **Published FPGA accelerators** — Allo [15] and DFX [29].  The paper takes
  their numbers directly from the respective publications ("All results of
  previous works are directly from their papers"), so we ship the same
  published GPT-2 numbers as constants, plus a simple analytical model of an
  *unfused* dataflow design (every intermediate result round-trips through
  external memory) used by the ablation benchmarks.
* **GPUs** — A100 and 2080Ti, modelled by the roofline + overhead model in
  :mod:`repro.eval.latency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.eval.latency import FpgaPerformanceModel, GpuPerformanceModel
from repro.models.workload import Workload
from repro.platform.gpu import NVIDIA_2080TI, NVIDIA_A100


@dataclass(frozen=True)
class PublishedResult:
    """A baseline data point published in prior work (Table 4 columns)."""

    system: str
    workload_label: str
    latency_ms: float
    ttft_ms: float
    speed_tokens_per_s: float


# GPT-2 results of Allo (PLDI'24) and DFX (MICRO'22) as reported in Table 4.
ALLO_GPT2_RESULTS: Dict[str, PublishedResult] = {
    "[32:32]": PublishedResult("Allo", "[32:32]", 238.32, 81.50, 204.05),
    "[64:64]": PublishedResult("Allo", "[64:64]", 476.64, 162.99, 204.05),
    "[128:128]": PublishedResult("Allo", "[128:128]", 953.28, 325.98, 204.05),
    "[256:256]": PublishedResult("Allo", "[256:256]", 1906.56, 651.96, 204.05),
}

DFX_GPT2_RESULTS: Dict[str, PublishedResult] = {
    "[32:32]": PublishedResult("DFX", "[32:32]", 350.00, 177.20, 185.19),
    "[64:64]": PublishedResult("DFX", "[64:64]", 694.70, 349.10, 185.19),
    "[128:128]": PublishedResult("DFX", "[128:128]", 1384.00, 692.80, 185.19),
    "[256:256]": PublishedResult("DFX", "[256:256]", 2800.00, 1417.60, 185.19),
}


def published_baseline(system: str, workload: Workload) -> PublishedResult:
    """Look up a published Allo/DFX GPT-2 result for a workload."""
    table = {"allo": ALLO_GPT2_RESULTS, "dfx": DFX_GPT2_RESULTS}.get(system.lower())
    if table is None:
        raise KeyError(f"no published results for system {system!r}")
    try:
        return table[workload.label]
    except KeyError:
        raise KeyError(
            f"{system} did not report workload {workload.label}"
        ) from None


# ----------------------------------------------------------------------
# Analytical baselines
# ----------------------------------------------------------------------
def unfused_dataflow_model(base: Optional[FpgaPerformanceModel] = None,
                           memory_roundtrip_overhead: float = 2.6,
                           ) -> FpgaPerformanceModel:
    """An FPGA dataflow design *without* stream-based kernel fusion.

    Every intermediate result is written to and read back from external
    memory (Figure 1(a)), so the activation traffic multiplies and kernels
    cannot overlap; we model this as a dilation of the achievable
    weight/activation streaming rate and the loss of compute/memory overlap.
    Used by the ablation benchmarks to show why fusion is required.
    """
    base = base or FpgaPerformanceModel()
    return FpgaPerformanceModel(
        platform=base.platform,
        weight_stream_gbs=base.weight_stream_gbs / memory_roundtrip_overhead,
        compute_efficiency=base.compute_efficiency / memory_roundtrip_overhead,
        per_layer_overhead_s=base.per_layer_overhead_s * 2.0,
        per_pass_overhead_s=base.per_pass_overhead_s,
        average_power_fraction=base.average_power_fraction,
        conservative_threshold_fraction=base.conservative_threshold_fraction,
        conservative_slowdown=base.conservative_slowdown,
    )


def a100_model() -> GpuPerformanceModel:
    """The paper's A100 baseline."""
    return GpuPerformanceModel(platform=NVIDIA_A100, per_layer_overhead_s=0.3e-3)


def rtx2080ti_model() -> GpuPerformanceModel:
    """The paper's RTX 2080Ti baseline (older PCIe/driver stack: higher
    per-layer overhead, lower achievable bandwidth)."""
    return GpuPerformanceModel(platform=NVIDIA_2080TI, per_layer_overhead_s=0.6e-3,
                               per_pass_overhead_s=1.5e-3)
