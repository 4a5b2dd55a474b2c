"""Compilation reports: per-stage timing and design statistics.

Figure 10c of the paper breaks StreamTensor's compile time down by pipeline
stage; the :class:`StageTimer` collects exactly that breakdown, and
:class:`CompileReport` adds the design statistics (kernel/edge/converter
counts, memory usage) that the experiment drivers print.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

# Canonical stage names matching Figure 4 / Figure 10c.
STAGE_NAMES = [
    "Linalg_Opt",
    "Linalg_Tiling",
    "Kernel_Fusion",
    "Dataflow_Opt",
    "Resource_Alloc",
    "Bufferization",
    "HLS_Opt",
    "Code_Gen",
]


@dataclass
class StageTimer:
    """Wall-clock timing of each compilation stage."""

    timings: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.timings[name] = self.timings.get(name, 0.0) + elapsed

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())

    def breakdown(self) -> Dict[str, float]:
        """Timings in canonical stage order (missing stages report 0)."""
        ordered = {name: self.timings.get(name, 0.0) for name in STAGE_NAMES}
        for name, value in self.timings.items():
            if name not in ordered:
                ordered[name] = value
        return ordered


@dataclass
class CompileReport:
    """Summary statistics of one compilation."""

    model: str = ""
    num_kernels: int = 0
    num_stream_edges: int = 0
    num_memory_edges: int = 0
    num_converters: int = 0
    num_fused_groups: int = 0
    converter_bytes: float = 0.0
    fifo_bytes: float = 0.0
    intermediate_bytes_unfused: float = 0.0
    intermediate_bytes_fused: float = 0.0
    onchip_budget_bytes: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    hls_lines: int = 0
    host_lines: int = 0

    @property
    def memory_reduction_ratio(self) -> float:
        if self.intermediate_bytes_unfused <= 0:
            return 1.0
        return self.intermediate_bytes_fused / self.intermediate_bytes_unfused

    @property
    def fits_on_chip(self) -> bool:
        return self.intermediate_bytes_fused <= self.onchip_budget_bytes

    def summary_lines(self) -> List[str]:
        return [
            f"model: {self.model}",
            f"kernels: {self.num_kernels} "
            f"(fused into {self.num_fused_groups} group(s))",
            f"edges: {self.num_stream_edges} stream / {self.num_memory_edges} memory, "
            f"{self.num_converters} converters",
            f"intermediate memory: {self.intermediate_bytes_unfused / 1e6:.2f} MB -> "
            f"{self.intermediate_bytes_fused / 1e6:.2f} MB "
            f"({self.memory_reduction_ratio * 100:.1f}%)",
            f"compile time: {sum(self.stage_seconds.values()):.3f} s",
        ]

    def __str__(self) -> str:
        return "\n".join(self.summary_lines())
