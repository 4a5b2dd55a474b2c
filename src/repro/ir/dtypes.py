"""Data types used throughout the StreamTensor IR.

The paper evaluates quantised LLMs (W4A8 on FPGA, W8A8/FP16 on GPUs), so the
type system needs sub-byte integer types in addition to the usual floating
point types.  A :class:`DType` is an immutable value object carrying the bit
width and numeric class; all sizes derived from tensor shapes (buffer bytes,
DMA burst widths, FIFO widths) are computed from these widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class DTypeKind(Enum):
    """Numeric class of a :class:`DType`."""

    FLOAT = "float"
    INT = "int"
    UINT = "uint"
    INDEX = "index"


@dataclass(frozen=True)
class DType:
    """An element data type with an explicit bit width.

    Attributes:
        kind: Numeric class (float, signed int, unsigned int, or index).
        bits: Storage width in bits.  Sub-byte widths (e.g. 4-bit weights)
            are allowed; byte sizes are rounded up only when packing into
            host buffers.
    """

    kind: DTypeKind
    bits: int

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"dtype bit width must be positive, got {self.bits}")

    @property
    def bytes(self) -> float:
        """Storage size in bytes (may be fractional for sub-byte types)."""
        return self.bits / 8.0

    @property
    def is_float(self) -> bool:
        return self.kind is DTypeKind.FLOAT

    def __str__(self) -> str:
        prefix = {
            DTypeKind.FLOAT: "f",
            DTypeKind.INT: "i",
            DTypeKind.UINT: "u",
            DTypeKind.INDEX: "index",
        }[self.kind]
        if self.kind is DTypeKind.INDEX:
            return prefix
        return f"{prefix}{self.bits}"


# Common types used by the LLM frontend and the quantisation schemes in the
# paper's evaluation (Table 6: W4A8 for StreamTensor/Allo, FP16 for DFX,
# W8A8 for the GPUs).
FLOAT64 = DType(DTypeKind.FLOAT, 64)
FLOAT32 = DType(DTypeKind.FLOAT, 32)
FLOAT16 = DType(DTypeKind.FLOAT, 16)
BFLOAT16 = DType(DTypeKind.FLOAT, 16)
INT32 = DType(DTypeKind.INT, 32)
INT16 = DType(DTypeKind.INT, 16)
INT8 = DType(DTypeKind.INT, 8)
INT4 = DType(DTypeKind.INT, 4)
UINT8 = DType(DTypeKind.UINT, 8)
UINT4 = DType(DTypeKind.UINT, 4)
INDEX = DType(DTypeKind.INDEX, 64)
