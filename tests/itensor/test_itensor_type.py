"""Tests for the iterative tensor type (Section 3.1.2, Figure 5)."""

import math

import pytest

from repro.ir.affine import AffineConstantExpr, AffineMap
from repro.ir.dtypes import FLOAT32, INT8
from repro.itensor.itensor_type import (
    ITensorError,
    ITensorType,
    itensor_from_tiling,
    operand_itensor,
)
from repro.itensor.verify import verify_coverage
from repro.ir.types import TensorType


def reaccess_factor(itype):
    """How many times the stream delivers each element of its tensor."""
    return (itype.num_iterations * itype.element_elements
            // math.prod(itype.tensor_shape()))


class TestFigure5Semantics:
    """The three worked examples of Figure 5 must reproduce exactly."""

    def test_itensor_a_stream_order(self, itensor_a):
        order = itensor_a.stream_order_list(6)
        assert order == [(0, 0), (0, 2), (0, 4), (0, 6), (2, 0), (2, 2)]

    def test_itensor_b_stream_order(self, itensor_b):
        # Paper: data access indices become [0,0], [4,0], [0,2], [4,2], ...
        order = itensor_b.stream_order_list(4)
        assert order == [(0, 0), (4, 0), (0, 2), (4, 2)]

    def test_itensor_c_stream_order_reaccesses_rows(self, itensor_c):
        # Paper: indices like [0,0], [4,0], [0,0], [4,0], [0,2], ...
        order = itensor_c.stream_order_list(5)
        assert order == [(0, 0), (4, 0), (0, 0), (4, 0), (0, 2)]

    def test_all_cover_the_same_tensor(self, itensor_a, itensor_b, itensor_c):
        assert itensor_a.tensor_shape() == (8, 8)
        assert itensor_b.tensor_shape() == (8, 8)
        assert itensor_c.tensor_shape() == (8, 8)

    def test_token_counts(self, itensor_a, itensor_b, itensor_c):
        assert itensor_a.num_iterations == 16
        assert itensor_b.num_iterations == 8
        assert itensor_c.num_iterations == 16  # re-access doubles the tokens

    def test_reaccess_factor(self, itensor_b, itensor_c):
        assert reaccess_factor(itensor_b) == 1
        assert reaccess_factor(itensor_c) == 2

    def test_matching_types_are_compatible(self, itensor_b):
        other = ITensorType((4, 2), FLOAT32, (4, 2), (2, 4),
                            AffineMap.from_results(2, [1, 0]))
        assert itensor_b.matches(other)
        assert itensor_b.is_compatible_with(other)

    def test_mismatched_types_need_converter(self, itensor_b, itensor_c):
        assert not itensor_b.matches(itensor_c)
        assert not itensor_b.is_compatible_with(itensor_c)


class TestValidation:
    def test_tripcount_step_length_mismatch(self):
        with pytest.raises(ITensorError):
            ITensorType((2,), FLOAT32, (4, 2), (2,), AffineMap.identity(2))

    def test_map_arity_must_match_loops(self):
        with pytest.raises(ITensorError):
            ITensorType((2, 2), FLOAT32, (4,), (2,), AffineMap.identity(2))

    def test_map_results_must_match_rank(self):
        with pytest.raises(ITensorError):
            ITensorType((2, 2), FLOAT32, (4, 4), (2, 2),
                        AffineMap.projection(2, [0]))

    def test_non_positive_values_rejected(self):
        with pytest.raises(ITensorError):
            ITensorType((0, 2), FLOAT32, (4, 4), (2, 2), AffineMap.identity(2))
        with pytest.raises(ITensorError):
            ITensorType((2, 2), FLOAT32, (4, 0), (2, 2), AffineMap.identity(2))

    def test_vector_shape_must_divide_element(self):
        with pytest.raises(ITensorError):
            ITensorType((4, 2), FLOAT32, (2, 4), (4, 2), AffineMap.identity(2),
                        vector_shape=(3, 1))

    def test_vector_shape_rank_must_match(self):
        with pytest.raises(ITensorError):
            ITensorType((4, 2), FLOAT32, (2, 4), (4, 2), AffineMap.identity(2),
                        vector_shape=(2,))


class TestDerivedQuantities:
    def test_element_bytes(self, itensor_b):
        assert itensor_b.element_elements == 8
        assert itensor_b.element_bytes == 32.0

    def test_with_vector_shape(self, itensor_b):
        vectorized = itensor_b.with_vector_shape((2, 2))
        assert vectorized.vector_shape == (2, 2)
        assert vectorized.element_shape == itensor_b.element_shape

    def test_str_contains_key_fields(self, itensor_b):
        text = str(itensor_b)
        assert "4x2" in text and "iter_space" in text and "iter_map" in text

    def test_loop_for_data_dim(self, itensor_c):
        assert itensor_c.loop_for_data_dim(0) == 2
        assert itensor_c.loop_for_data_dim(1) == 0


class TestItensorFromTiling:
    def test_row_major_tiling(self):
        itype = itensor_from_tiling(TensorType((64, 64), INT8), (16, 16))
        assert itype.element_shape == (16, 16)
        assert itype.iter_tripcounts == (4, 4)
        assert itype.iter_steps == (16, 16)
        assert itype.stream_order_list(5) == [
            (0, 0), (0, 16), (0, 32), (0, 48), (16, 0)]

    def test_column_major_loop_order(self):
        itype = itensor_from_tiling(TensorType((64, 64), INT8), (16, 16),
                                    loop_order=[1, 0])
        assert itype.stream_order_list(5) == [
            (0, 0), (16, 0), (32, 0), (48, 0), (0, 16)]

    def test_reaccess_loop_insertion(self):
        itype = itensor_from_tiling(TensorType((8, 8), FLOAT32), (4, 2),
                                    loop_order=[1, 0],
                                    reaccess_loops=[(1, 2)])
        assert itype.num_iterations == 16
        assert reaccess_factor(itype) == 2

    def test_non_dividing_tile_rejected(self):
        with pytest.raises(ITensorError):
            itensor_from_tiling(TensorType((10, 10), INT8), (3, 3))

    def test_bad_loop_order_rejected(self):
        with pytest.raises(ITensorError):
            itensor_from_tiling(TensorType((8, 8), INT8), (4, 4), loop_order=[0, 0])

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ITensorError):
            itensor_from_tiling(TensorType((8, 8), INT8), (4,))


class TestOperandItensor:
    """The builder the tiling pass runs for every kernel port (Section 4.1).

    The loop nest is a matmul ``C[m, n] += A[m, k] * B[k, n]`` with
    iteration dims ``(m, n, k) = (d0, d1, d2)``.
    """

    BOUNDS = (64, 32, 128)
    TILES = (16, 8, 32)

    def test_unindexed_loop_reaccesses_the_operand(self):
        itype = operand_itensor(TensorType((64, 128), INT8),
                                AffineMap.from_results(3, [0, 2]),
                                [0, 1, 2], self.TILES, self.BOUNDS)
        assert itype.element_shape == (16, 32)
        assert itype.iter_tripcounts == (4, 4, 4)
        assert itype.iter_steps == (16, 8, 32)
        assert itype.iter_map == AffineMap.from_results(3, [0, 2])
        # The n loop streams every A tile once per column tile of C.
        assert reaccess_factor(itype) == 4
        verify_coverage(itype)

    def test_result_drops_the_reduction_loop(self):
        itype = operand_itensor(TensorType((64, 32), INT8),
                                AffineMap.from_results(3, [0, 1]),
                                [0, 1, 2], self.TILES, self.BOUNDS,
                                drop_loops=(2,))
        assert itype.element_shape == (16, 8)
        assert itype.iter_tripcounts == (4, 4)
        assert itype.iter_map == AffineMap.identity(2)
        assert reaccess_factor(itype) == 1

    def test_unscanned_data_dim_streams_its_whole_extent(self):
        # With the k loop dropped, B's rows are not scanned by any loop.
        itype = operand_itensor(TensorType((128, 32), INT8),
                                AffineMap.from_results(3, [2, 1]),
                                [0, 1, 2], self.TILES, self.BOUNDS,
                                drop_loops=(2,))
        assert itype.element_shape == (128, 8)
        assert itype.iter_map.results[0] == AffineConstantExpr(0)
        assert itype.loop_for_data_dim(0) is None
        assert itype.loop_for_data_dim(1) == 1
        verify_coverage(itype)

    def test_partial_last_tile_rounds_the_trip_count_up(self):
        itype = operand_itensor(TensorType((10, 8), INT8), AffineMap.identity(2),
                                [0, 1], (4, 8), (10, 8))
        assert itype.iter_tripcounts == (3, 1)
        verify_coverage(itype)

    def test_transposed_indexing_map_transposes_the_stream(self):
        # Loop d0 scans data dim 1 and loop d1 scans data dim 0.
        itype = operand_itensor(TensorType((32, 64), INT8),
                                AffineMap.from_results(2, [1, 0]),
                                [0, 1], (16, 8), (64, 32))
        assert itype.element_shape == (8, 16)
        assert itype.stream_order_list(3) == [(0, 0), (8, 0), (16, 0)]

    def test_loop_order_sets_the_iteration_space_order(self):
        itype = operand_itensor(TensorType((64, 32), INT8), AffineMap.identity(2),
                                [1, 0], (16, 8), (64, 32))
        assert itype.iter_tripcounts == (4, 4)
        assert itype.iter_steps == (8, 16)
        assert itype.iter_map == AffineMap.from_results(2, [1, 0])
        assert itype.stream_order_list(2) == [(0, 0), (16, 0)]

    def test_itensor_from_tiling_builds_through_it(self):
        tensor = TensorType((8, 8), FLOAT32)
        tiled = itensor_from_tiling(tensor, (4, 2), loop_order=[1, 0],
                                    reaccess_loops=[(1, 2)])
        # Data dims are iteration dims 0 and 1; the re-access loop is dim 2.
        built = operand_itensor(tensor, AffineMap.from_results(3, [0, 1]),
                                [1, 2, 0], (4, 2, 1), (8, 8, 2))
        assert tiled == built


class TestSameStreamOrder:
    def test_different_encoding_same_order(self):
        """A unit re-access loop does not change the stream order."""
        base = itensor_from_tiling(TensorType((8, 8), FLOAT32), (4, 2))
        padded = ITensorType((4, 2), FLOAT32, (2, 1, 4), (4, 1, 2),
                             AffineMap.from_results(3, [0, 2]))
        assert base.same_stream_order(padded)
        assert base.is_compatible_with(padded)

    def test_different_element_shape_not_compatible(self, itensor_a, itensor_b):
        assert not itensor_a.same_stream_order(itensor_b)
