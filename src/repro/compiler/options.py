"""Compiler options for the end-to-end StreamTensor pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.platform.fpga import AMD_U55C, FpgaPlatform
from repro.resource.token_model import EqualizationStrategy


@dataclass
class CompilerOptions:
    """All user-facing knobs of the compilation pipeline.

    Attributes:
        platform: Target FPGA platform (defaults to the paper's AMD U55C).
        default_tile_size: Tiling-space hyperparameter applied to every loop.
        overall_unroll_size: Total unroll budget distributed by the
            intensity-driven algorithm.
        explore_tiling: Run the black-box hyperparameter exploration instead
            of using the two hyperparameters directly.
        exploration_trials: Trial budget for the black-box explorer.
        fusion_memory_fraction: Fraction of on-chip memory a single fused
            kernel may spend on converters/FIFOs (the C_max of Algorithm 2).
        equalization: FIFO-sizing equalisation strategy.
        memory_bus_bits: External-memory bus width used for interface widening.
        num_dies: Dies used for graph partitioning (defaults to the platform).
        enable_folding: Run the itensor folding optimisation.
        enable_vectorization: Run itensor vectorisation on stream edges.
        generate_code: Emit the HLS/host/connectivity artefacts.
        seed: Seed for any randomised exploration (deterministic by default).
    """

    platform: FpgaPlatform = field(default_factory=lambda: AMD_U55C)
    default_tile_size: int = 16
    overall_unroll_size: int = 128
    explore_tiling: bool = False
    exploration_trials: int = 6
    fusion_memory_fraction: float = 0.5
    equalization: EqualizationStrategy = EqualizationStrategy.NORMAL
    memory_bus_bits: int = 512
    num_dies: Optional[int] = None
    enable_folding: bool = True
    enable_vectorization: bool = True
    generate_code: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("default_tile_size", "overall_unroll_size",
                     "exploration_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if not 0.0 < self.fusion_memory_fraction <= 1.0:
            raise ValueError("fusion_memory_fraction must be in (0, 1], "
                             f"got {self.fusion_memory_fraction}")
        dies = self.platform.num_dies
        if self.num_dies is not None and not 1 <= self.num_dies <= dies:
            raise ValueError(f"num_dies must be in 1..{dies} for "
                             f"{self.platform.name}, got {self.num_dies}")

    @property
    def fusion_c_max_bytes(self) -> float:
        return self.platform.onchip_memory_bytes * self.fusion_memory_fraction

    @property
    def effective_num_dies(self) -> int:
        return self.num_dies if self.num_dies is not None else self.platform.num_dies
