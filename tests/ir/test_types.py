"""Tests for repro.ir.types."""

import pytest

from repro.ir.dtypes import FLOAT32, INT4, INT8
from repro.ir.types import TensorType


class TestTensorType:
    def test_basic_properties(self):
        t = TensorType((8, 8), FLOAT32)
        assert t.rank == 2
        assert t.num_elements == 64
        assert t.size_bits == 64 * 32
        assert t.size_bytes == 256.0

    def test_sub_byte_tensor_size(self):
        t = TensorType((1024, 1024), INT4)
        assert t.size_bytes == 1024 * 1024 / 2

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            TensorType((0, 4), FLOAT32)

    def test_str(self):
        assert str(TensorType((8, 8), FLOAT32)) == "tensor<8x8xf32>"

    def test_equality_and_hash(self):
        assert TensorType((2, 2), INT8) == TensorType((2, 2), INT8)
        assert len({TensorType((2, 2), INT8), TensorType((2, 2), INT8)}) == 1

