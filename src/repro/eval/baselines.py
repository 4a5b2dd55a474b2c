"""Baseline accelerators compared against in the paper's evaluation.

Two kinds of baselines appear:

* **Published FPGA accelerators** — Allo [15] and DFX [29].  The paper takes
  their numbers directly from the respective publications ("All results of
  previous works are directly from their papers"), so we ship the same
  published GPT-2 numbers as constants.
* **GPUs** — A100 and 2080Ti, modelled by the roofline + overhead model in
  :mod:`repro.eval.latency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.eval.latency import GpuPerformanceModel
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
def a100_model() -> GpuPerformanceModel:
    """The paper's A100 baseline."""
    return GpuPerformanceModel(platform=NVIDIA_A100, per_layer_overhead_s=0.3e-3)


def rtx2080ti_model() -> GpuPerformanceModel:
    """The paper's RTX 2080Ti baseline (older PCIe/driver stack: higher
    per-layer overhead, lower achievable bandwidth)."""
    return GpuPerformanceModel(platform=NVIDIA_2080TI, per_layer_overhead_s=0.6e-3,
                               per_pass_overhead_s=1.5e-3)
