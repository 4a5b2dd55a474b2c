"""Tensor and memref-like types for the Linalg-level IR.

These are the "traditional" tensor types the paper contrasts with the
iterative tensor type: a dtype plus a static shape, accessed in a
memory-mapped manner.  The dataflow-level iterative tensor and stream types
live in :mod:`repro.itensor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.ir.dtypes import DType


@dataclass(frozen=True)
class TensorType:
    """A statically-shaped tensor type (``tensor<8x8xf32>``)."""

    shape: Tuple[int, ...]
    dtype: DType

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        for dim in self.shape:
            if dim <= 0:
                raise ValueError(f"tensor dimensions must be positive, got {self.shape}")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape) if self.shape else 1

    @property
    def size_bits(self) -> int:
        return self.num_elements * self.dtype.bits

    @property
    def size_bytes(self) -> float:
        return self.size_bits / 8.0

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        if dims:
            return f"tensor<{dims}x{self.dtype}>"
        return f"tensor<{self.dtype}>"
