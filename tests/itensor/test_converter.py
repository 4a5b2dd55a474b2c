"""Tests for Algorithm 1: stream layout converter generation."""

import dataclasses

import pytest

from repro.ir.affine import AffineMap
from repro.ir.dtypes import FLOAT32, INT8
from repro.ir.types import TensorType
from repro.itensor.converter import converter_cost_bytes, infer_converter
from repro.itensor.itensor_type import ITensorError, ITensorType, itensor_from_tiling


class TestFigure5Converter:
    """Case 2 of Figure 5: converting itensor(b) to itensor(c)."""

    def test_buffer_shape_is_8x2(self, itensor_b, itensor_c):
        spec = infer_converter(itensor_b, itensor_c)
        assert spec.buf_shape == (8, 2)

    def test_shared_loop_is_d0(self, itensor_b, itensor_c):
        spec = infer_converter(itensor_b, itensor_c)
        assert spec.shared_loops == (0,)
        assert spec.before_loop == 1

    def test_buffer_is_ping_pong(self, itensor_b, itensor_c):
        spec = infer_converter(itensor_b, itensor_c)
        assert spec.buffer.double_buffered
        # 8x2 f32 double-buffered = 2 * 16 * 4 bytes.
        assert spec.buffer_bytes == 128.0

    def test_buffer_reused_per_shared_loop_iteration(self, itensor_b, itensor_c):
        spec = infer_converter(itensor_b, itensor_c)
        assert spec.reuse_factor == 4

    def test_not_full_tensor(self, itensor_b, itensor_c):
        spec = infer_converter(itensor_b, itensor_c)
        assert spec.buf_shape != itensor_b.tensor_shape()


class TestFigure7Converter:
    """Figure 7(a): a 64x64 tensor with 16x16 tiles needs a 16x64 buffer."""

    def make_types(self):
        tensor = TensorType((64, 64), FLOAT32)
        producer = itensor_from_tiling(tensor, (16, 16))
        # Consumer re-reads each row of tiles (e.g. a matmul operand): loops
        # (row, reaccess, col) with the column loop innermost.
        consumer = ITensorType((16, 16), FLOAT32, (4, 4, 4), (16, 1, 16),
                               AffineMap.from_results(3, [0, 2]))
        return producer, consumer

    def test_buffer_shape_is_16x64(self):
        producer, consumer = self.make_types()
        spec = infer_converter(producer, consumer)
        assert spec.buf_shape == (16, 64)

    def test_buffer_reused_four_times(self):
        producer, consumer = self.make_types()
        spec = infer_converter(producer, consumer)
        assert spec.reuse_factor == 4
        assert spec.before_loop == 1


class TestWorstCase:
    def test_transposed_consumer_buffers_full_tensor(self):
        tensor = TensorType((64, 64), INT8)
        producer = itensor_from_tiling(tensor, (16, 16))
        consumer = itensor_from_tiling(tensor, (16, 16), loop_order=[1, 0])
        spec = infer_converter(producer, consumer)
        assert spec.buf_shape == producer.tensor_shape() == (64, 64)
        assert spec.before_loop == 0

    def test_element_size_mismatch_prevents_reduction(self):
        tensor = TensorType((64, 64), INT8)
        producer = itensor_from_tiling(tensor, (16, 16))
        consumer = itensor_from_tiling(tensor, (32, 16))
        spec = infer_converter(producer, consumer)
        # Data dim 0 tiles differ (16 vs 32): it must be buffered in full.
        assert spec.buf_shape[0] == 64


class TestSharedLoopPrefixFilter:
    def test_inner_shared_loop_without_shared_parent_is_dropped(self):
        """A shared loop nested under a non-shared loop cannot be hoisted."""
        tensor = TensorType((64, 64), FLOAT32)
        # Producer scans (row, col); consumer scans (col, row): the row loop
        # appears at different nesting levels, only data dim agreement on the
        # inner loop is not enough.
        producer = itensor_from_tiling(tensor, (16, 16))
        consumer = ITensorType((16, 16), FLOAT32, (4, 4), (16, 16),
                               AffineMap.from_results(2, [1, 0]))
        spec = infer_converter(producer, consumer)
        assert spec.before_loop == 0
        assert spec.buf_shape == producer.tensor_shape()


class TestConverterValidation:
    def test_rank_mismatch_rejected(self, itensor_b):
        other = itensor_from_tiling(TensorType((8, 8, 8), FLOAT32), (4, 2, 8))
        with pytest.raises(ITensorError):
            infer_converter(itensor_b, other)

    def test_tensor_shape_mismatch_rejected(self, itensor_b):
        other = itensor_from_tiling(TensorType((16, 8), FLOAT32), (4, 2))
        with pytest.raises(ITensorError):
            infer_converter(itensor_b, other)

    def test_dtype_mismatch_rejected(self, itensor_b):
        other = dataclasses.replace(itensor_b, dtype=INT8)
        with pytest.raises(ITensorError):
            infer_converter(itensor_b, other)


class TestConverterCost:
    def test_compatible_types_cost_zero(self, itensor_b):
        assert converter_cost_bytes(itensor_b, itensor_b) == 0.0

    def test_incompatible_types_cost_buffer_bytes(self, itensor_b, itensor_c):
        cost = converter_cost_bytes(itensor_b, itensor_c)
        assert cost == infer_converter(itensor_b, itensor_c).buffer_bytes
        assert cost > 0
