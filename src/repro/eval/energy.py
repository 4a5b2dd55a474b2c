"""Energy efficiency metrics (Figure 9).

The paper reports tokens per joule for the decode phase: generated tokens
divided by the energy spent over the whole request.  Both the FPGA and GPU
latency models already return total energy, so this module only adds the
comparison helpers used by the Figure 9 experiment and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.eval.latency import LatencyBreakdown


@dataclass(frozen=True)
class EnergyComparison:
    """Energy efficiency of StreamTensor vs a baseline for one workload."""

    model: str
    workload_label: str
    ours_tokens_per_joule: float
    baseline_tokens_per_joule: float
    baseline_name: str

    @property
    def ratio(self) -> float:
        """StreamTensor efficiency divided by the baseline's (>1 means we win)."""
        if self.baseline_tokens_per_joule <= 0:
            return float("inf")
        return self.ours_tokens_per_joule / self.baseline_tokens_per_joule


def compare_energy(ours: LatencyBreakdown,
                   baseline: LatencyBreakdown) -> EnergyComparison:
    """Build the Figure 9 data point for one (model, workload) pair."""
    if ours.workload.label != baseline.workload.label:
        raise ValueError("cannot compare different workloads")
    return EnergyComparison(
        model=ours.model,
        workload_label=ours.workload.label,
        ours_tokens_per_joule=ours.tokens_per_joule,
        baseline_tokens_per_joule=baseline.tokens_per_joule,
        baseline_name=baseline.platform,
    )


def geometric_mean_ratio(comparisons: List[EnergyComparison]) -> float:
    """Geometric mean of the efficiency ratios across workloads."""
    if not comparisons:
        return 1.0
    product = 1.0
    for comparison in comparisons:
        product *= max(1e-12, comparison.ratio)
    return product ** (1.0 / len(comparisons))


def best_ratio(comparisons: List[EnergyComparison]) -> float:
    """The "up to Nx" number the paper quotes per model."""
    return max((c.ratio for c in comparisons), default=1.0)
