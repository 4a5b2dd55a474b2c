"""Iterative tensor (itensor) type system — the paper's core contribution."""

from repro.itensor.converter import ConverterSpec, converter_cost_bytes, infer_converter
from repro.itensor.itensor_type import (
    ITensorError,
    ITensorType,
    itensor_from_tiling,
    operand_itensor,
)
from repro.itensor.stream_type import BufferType, StreamType
from repro.itensor.verify import (
    StreamVerificationError,
    verify_connection,
    verify_coverage,
    verify_fifo_tokens,
)

__all__ = [
    "BufferType",
    "ConverterSpec",
    "ITensorError",
    "ITensorType",
    "StreamType",
    "StreamVerificationError",
    "converter_cost_bytes",
    "infer_converter",
    "itensor_from_tiling",
    "operand_itensor",
    "verify_connection",
    "verify_coverage",
    "verify_fifo_tokens",
]
