"""Tests for Linalg tiling and itensor type inference (Section 4.1)."""

import pytest

from repro.dataflow.tiling import (
    TilingConfig,
    _largest_divisor,
    default_tiling,
    tile_graph,
    tile_op,
)
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8
from repro.ir.ops import make_elementwise, make_matmul, Value
from repro.ir.types import TensorType


def matmul_op(m=64, k=64, n=64):
    a = Value(TensorType((m, k), INT8))
    b = Value(TensorType((k, n), INT8))
    return make_matmul(a, b)


class TestLargestDivisor:
    @pytest.mark.parametrize("bound,limit,expected", [
        (64, 16, 16), (64, 17, 16), (10, 3, 2), (7, 4, 1), (8, 100, 8),
    ])
    def test_values(self, bound, limit, expected):
        assert _largest_divisor(bound, limit) == expected


class TestTilingConfig:
    def test_normalized_clamps_and_snaps(self):
        op = matmul_op(64, 48, 64)
        config = TilingConfig([100, 100, 20]).normalized(op)
        assert config.tile_sizes == [64, 64, 16]

    def test_normalized_extends_short_tile_list(self):
        op = matmul_op()
        config = TilingConfig([8]).normalized(op)
        assert len(config.tile_sizes) == 3

    def test_invalid_permutation_rejected(self):
        op = matmul_op()
        with pytest.raises(ValueError):
            TilingConfig([16, 16, 16], permutation=[0, 0, 1]).normalized(op)


class TestTileOpMatmul:
    def test_loop_structure(self):
        info = tile_op(matmul_op(), TilingConfig([16, 16, 16]))
        assert info.loop_tripcounts == [4, 4, 4]
        assert info.loop_steps == [16, 16, 16]

    def test_input_itensor_reaccesses_over_missing_dims(self):
        info = tile_op(matmul_op(), TilingConfig([16, 16, 16]))
        a_type = info.input_itensors[0]
        # A[m, k] is re-read for every n tile.
        assert a_type.num_iterations == 64
        assert a_type.element_shape == (16, 16)

    def test_result_itensor_drops_reduction_loops(self):
        info = tile_op(matmul_op(), TilingConfig([16, 16, 16]))
        out = info.result_itensor
        assert out.num_iterations == 16  # only the 4x4 parallel tiles
        assert out.tensor_shape() == (64, 64)

    def test_permutation_changes_stream_order(self):
        row_major = tile_op(matmul_op(), TilingConfig([16, 16, 16],
                                                      permutation=[0, 1, 2]))
        col_major = tile_op(matmul_op(), TilingConfig([16, 16, 16],
                                                      permutation=[1, 0, 2]))
        assert (row_major.result_itensor.stream_order_list(3)
                != col_major.result_itensor.stream_order_list(3))


class TestTileOpElementwise:
    def test_elementwise_types_match_producer_layout(self):
        x = Value(TensorType((64, 64), INT8))
        op = make_elementwise("gelu", [x])
        info = tile_op(op, TilingConfig([16, 16]))
        assert info.result_itensor.num_iterations == 16
        assert info.input_itensors[0].matches(info.result_itensor)


class TestDefaults:
    def test_default_tiling_uses_hyperparameter(self):
        config = default_tiling(matmul_op(), default_tile_size=32)
        assert config.tile_sizes == [32, 32, 32]

    def test_tile_graph_covers_all_ops(self):
        builder = GraphBuilder()
        x = builder.input((64, 64), INT8)
        w = builder.weight((64, 64), INT8)
        builder.output(builder.gelu(builder.matmul(x, w)))
        graph = builder.build()
        ops = [op for op in graph.ops if not op.is_constant]
        tiled = tile_graph(ops, {})
        assert set(tiled) == {op.name for op in ops}

    def test_tiles_larger_than_bounds_clamp(self):
        info = tile_op(matmul_op(8, 8, 8), TilingConfig([64, 64, 64]))
        assert info.loop_tripcounts == [1, 1, 1]
        assert info.result_itensor.num_iterations == 1
