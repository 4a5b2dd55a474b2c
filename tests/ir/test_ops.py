"""Tests for repro.ir.ops (structured Linalg-style operations)."""

import pytest

from repro.ir.dtypes import FLOAT32, INT8
from repro.ir.ops import (
    IteratorType,
    LinalgOp,
    Value,
    make_batch_matmul,
    make_elementwise,
    make_fill,
    make_matmul,
    make_norm,
    make_softmax,
    make_transpose,
    make_weight,
)
from repro.ir.types import TensorType
from repro.ir.affine import AffineMap


def value(shape, dtype=FLOAT32, name="x"):
    return Value(TensorType(shape, dtype), name=name)


class TestMatmul:
    def test_shapes_and_iterators(self):
        op = make_matmul(value((8, 16)), value((16, 32)))
        assert op.result_type.shape == (8, 32)
        assert op.iterator_types == [IteratorType.PARALLEL, IteratorType.PARALLEL,
                                     IteratorType.REDUCTION]
        assert op.loop_bounds() == [8, 32, 16]

    def test_contraction_mismatch_raises(self):
        with pytest.raises(ValueError):
            make_matmul(value((8, 16)), value((8, 32)))

    def test_flops(self):
        op = make_matmul(value((8, 16)), value((16, 32)))
        assert op.flops() == 2 * 8 * 16 * 32

    def test_reduction_and_parallel_dims(self):
        op = make_matmul(value((4, 4)), value((4, 4)))
        assert op.reduction_dims == [2]

    def test_not_elementwise(self):
        op = make_matmul(value((4, 4)), value((4, 4)))
        assert not op.is_elementwise


class TestBatchMatmul:
    def test_shapes(self):
        op = make_batch_matmul(value((2, 8, 16)), value((2, 16, 4)))
        assert op.result_type.shape == (2, 8, 4)
        assert op.loop_bounds() == [2, 8, 4, 16]

    def test_batch_mismatch_raises(self):
        with pytest.raises(ValueError):
            make_batch_matmul(value((2, 8, 16)), value((3, 16, 4)))


class TestElementwise:
    def test_add_shapes(self):
        op = make_elementwise("add", [value((4, 4)), value((4, 4))])
        assert op.result_type.shape == (4, 4)
        assert op.is_elementwise

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            make_elementwise("add", [value((4, 4)), value((4, 8))])

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            make_elementwise("add", [])

    def test_iteration_count(self):
        op = make_elementwise("gelu", [value((8, 128))])
        assert op.iteration_count() == 1024


class TestReductionsAndNorms:
    def test_softmax_keeps_shape_with_reduction_axis(self):
        op = make_softmax(value((2, 8, 8)), axis=-1)
        assert op.result_type.shape == (2, 8, 8)
        assert op.reduction_dims == [2]

    def test_layer_norm_with_weight(self):
        op = make_norm("layer_norm", value((4, 16)), value((16,), name="w"))
        assert op.result_type.shape == (4, 16)
        assert op.reduction_dims == [1]

    def test_unknown_norm_kind(self):
        with pytest.raises(ValueError):
            make_norm("batch_norm", value((4, 16)))


class TestConstantsAndMisc:
    def test_fill_is_constant(self):
        op = make_fill((4, 4), FLOAT32, value=1.5)
        assert op.is_constant
        assert op.attributes["value"] == 1.5

    def test_weight_is_constant(self):
        assert make_weight((8, 8), INT8).is_constant

    def test_transpose(self):
        op = make_transpose(value((2, 3, 4)), (2, 0, 1))
        assert op.result_type.shape == (4, 2, 3)

    def test_transpose_invalid_perm(self):
        with pytest.raises(ValueError):
            make_transpose(value((2, 3)), (0, 0))


class TestLinalgOpValidation:
    def test_wrong_map_count_rejected(self):
        with pytest.raises(ValueError, match="indexing maps"):
            LinalgOp("custom", [value((4, 4))], TensorType((4, 4), FLOAT32),
                     [IteratorType.PARALLEL] * 2,
                     [AffineMap.identity(2)])

    def test_wrong_map_arity_rejected(self):
        with pytest.raises(ValueError, match="iterators"):
            LinalgOp("custom", [value((4, 4))], TensorType((4, 4), FLOAT32),
                     [IteratorType.PARALLEL] * 2,
                     [AffineMap.identity(3), AffineMap.identity(2)])

    def test_inconsistent_extents_detected(self):
        op = LinalgOp("custom", [value((4, 4)), value((8, 8))],
                      TensorType((4, 4), FLOAT32),
                      [IteratorType.PARALLEL] * 2,
                      [AffineMap.identity(2), AffineMap.identity(2),
                       AffineMap.identity(2)])
        with pytest.raises(ValueError, match="inconsistent extent"):
            op.loop_bounds()

    def test_result_value_links_back_to_op(self):
        op = make_matmul(value((4, 4)), value((4, 4)))
        assert op.result.producer is op
