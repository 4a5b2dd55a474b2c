"""Tests for the loop-permutation heuristics."""

from repro.dse.permutation import (
    apply_permutation_heuristic,
    reduction_outward_permutation,
    streaming_tile_loop_order,
)
from repro.dse.tiling_space import TilingSpace
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8
from repro.ir.ops import IteratorType


def space_with_matmul():
    builder = GraphBuilder()
    x = builder.input((32, 32), INT8)
    w = builder.weight((32, 32), INT8)
    builder.output(builder.softmax(builder.matmul(x, w, name="mm"), name="sm"))
    return TilingSpace.from_graph(builder.build())


class TestReductionOutward:
    def test_reduction_dims_come_first(self):
        space = space_with_matmul()
        node = space.node("mm")
        perm = reduction_outward_permutation(node)
        assert node.loop_types[perm[0]] is IteratorType.REDUCTION
        assert node.loop_types[perm[-1]] is IteratorType.PARALLEL

    def test_relative_order_of_parallel_dims_preserved(self):
        space = space_with_matmul()
        perm = reduction_outward_permutation(space.node("mm"))
        parallel_positions = [p for p in perm
                              if space.node("mm").loop_types[p] is IteratorType.PARALLEL]
        assert parallel_positions == sorted(parallel_positions)


class TestStreamingOrder:
    def test_parallel_dims_come_first(self):
        space = space_with_matmul()
        node = space.node("mm")
        order = streaming_tile_loop_order(node)
        assert node.loop_types[order[0]] is IteratorType.PARALLEL
        assert node.loop_types[order[-1]] is IteratorType.REDUCTION

    def test_orders_are_permutations(self):
        space = space_with_matmul()
        for node in space.nodes:
            assert sorted(streaming_tile_loop_order(node)) == list(range(len(node.loop_types)))
            assert sorted(reduction_outward_permutation(node)) == list(range(len(node.loop_types)))


class TestApplyHeuristic:
    def test_sets_both_orders_on_all_nodes(self):
        space = space_with_matmul()
        apply_permutation_heuristic(space)
        for node in space.nodes:
            assert node.permutation is not None
            assert node.tile_loop_order is not None

    def test_innermost_is_parallel_postcondition(self):
        space = space_with_matmul()
        apply_permutation_heuristic(space)
        for node in space.nodes:
            # The intra-tile pipeline keeps a parallel loop innermost.
            assert node.loop_types[node.permutation[-1]] is IteratorType.PARALLEL

    def test_pure_elementwise_nodes_are_untouched_semantically(self):
        builder = GraphBuilder()
        x = builder.input((8, 8), INT8)
        builder.output(builder.gelu(x, name="g"))
        space = TilingSpace.from_graph(builder.build())
        apply_permutation_heuristic(space)
        assert space.node("g").tile_loop_order == [0, 1]
