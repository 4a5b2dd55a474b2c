"""Tests for repro.ir.dtypes."""

import pytest

from repro.ir.dtypes import (
    DType,
    DTypeKind,
    FLOAT16,
    FLOAT32,
    INT4,
    INT8,
    UINT8,
)


class TestDType:
    def test_bytes_of_standard_types(self):
        assert FLOAT32.bytes == 4.0
        assert FLOAT16.bytes == 2.0
        assert INT8.bytes == 1.0

    def test_sub_byte_types_have_fractional_bytes(self):
        assert INT4.bytes == 0.5

    def test_is_float(self):
        assert FLOAT32.is_float
        assert not INT8.is_float
        assert not UINT8.is_float

    def test_str_forms(self):
        assert str(FLOAT32) == "f32"
        assert str(INT4) == "i4"
        assert str(UINT8) == "u8"

    def test_invalid_bit_width_rejected(self):
        with pytest.raises(ValueError):
            DType(DTypeKind.INT, 0)
        with pytest.raises(ValueError):
            DType(DTypeKind.FLOAT, -8)

    def test_dtype_is_hashable_and_comparable(self):
        assert DType(DTypeKind.FLOAT, 32) == FLOAT32
        assert len({FLOAT32, DType(DTypeKind.FLOAT, 32), INT8}) == 2

