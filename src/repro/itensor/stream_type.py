"""Stream and buffer types produced by bufferization (Section 3.1.3).

Unlike the immutable itensor type, a :class:`StreamType` models a hardware
FIFO: it only carries the token data type (possibly a vector) and the FIFO
depth.  All stream-layout information is stripped during bufferization, which
is why every dataflow component generation and optimisation must happen at
the itensor level before lowering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.ir.dtypes import DType


@dataclass(frozen=True)
class StreamType:
    """A hardware FIFO type: token type and depth.

    Attributes:
        dtype: Scalar element data type of one token.
        depth: FIFO depth in tokens (set by the FIFO-sizing LP).
        vector_shape: Optional vectorisation of the token; a vectorised FIFO
            carries ``prod(vector_shape)`` scalar elements per token.
    """

    dtype: DType
    depth: int
    vector_shape: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.depth <= 0:
            raise ValueError(f"FIFO depth must be positive, got {self.depth}")
        if self.vector_shape is not None:
            object.__setattr__(self, "vector_shape",
                               tuple(int(d) for d in self.vector_shape))

    @property
    def token_elements(self) -> int:
        if self.vector_shape is None:
            return 1
        return math.prod(self.vector_shape)

    @property
    def token_bits(self) -> int:
        return self.token_elements * self.dtype.bits

    @property
    def capacity_bits(self) -> int:
        return self.depth * self.token_bits

    @property
    def capacity_bytes(self) -> float:
        return self.capacity_bits / 8.0

    def __str__(self) -> str:
        if self.vector_shape is not None:
            vec = "x".join(str(d) for d in self.vector_shape)
            return f"stream<vector<{vec}x{self.dtype}>, depth: {self.depth}>"
        return f"stream<{self.dtype}, depth: {self.depth}>"


@dataclass(frozen=True)
class BufferType:
    """An on-chip (optionally ping-pong) buffer produced by bufferization."""

    shape: Tuple[int, ...]
    dtype: DType
    double_buffered: bool = True
    memory_space: str = "bram"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        if any(d <= 0 for d in self.shape):
            raise ValueError(f"buffer dims must be positive: {self.shape}")

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape) if self.shape else 1

    @property
    def size_bits(self) -> int:
        factor = 2 if self.double_buffered else 1
        return factor * self.num_elements * self.dtype.bits

    @property
    def size_bytes(self) -> float:
        return self.size_bits / 8.0

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        kind = "ping-pong" if self.double_buffered else "single"
        return f"buffer<{dims}x{self.dtype}, {kind}, {self.memory_space}>"
