"""Tests for the Linalg tiling space (Section 5.1)."""

import pytest

from repro.dse.tiling_space import TilingSpace
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8


def two_matmul_graph():
    builder = GraphBuilder("net")
    x = builder.input((64, 64), INT8)
    w1 = builder.weight((64, 128), INT8)
    w2 = builder.weight((128, 64), INT8)
    y = builder.matmul(x, w1, name="big")
    z = builder.matmul(y, w2, name="small")
    builder.output(z)
    return builder.build()


class TestTilingSpace:
    def test_from_graph_skips_constants(self):
        space = TilingSpace.from_graph(two_matmul_graph())
        assert {node.name for node in space.nodes} == {"big", "small"}

    def test_node_lookup(self):
        space = TilingSpace.from_graph(two_matmul_graph())
        assert space.node("big").op.kind == "matmul"
        with pytest.raises(KeyError):
            space.node("missing")

    def test_naive_tiling_applies_hyperparameter(self):
        space = TilingSpace.from_graph(two_matmul_graph(), default_tile_size=16)
        space.apply_naive_tiling()
        for node in space.nodes:
            assert all(size == 16 for size in node.tile_sizes)

    def test_naive_tiling_clamps_to_bounds(self):
        builder = GraphBuilder()
        x = builder.input((8, 8), INT8)
        w = builder.weight((8, 8), INT8)
        builder.output(builder.matmul(x, w))
        space = TilingSpace.from_graph(builder.build(), default_tile_size=16)
        space.apply_naive_tiling()
        assert all(size <= 8 for size in space.nodes[0].tile_sizes)

    def test_latency_estimate_scales_with_unroll(self):
        space = TilingSpace.from_graph(two_matmul_graph())
        node = space.node("big")
        base = node.latency_estimate()
        node.unroll_factor = 4
        assert node.latency_estimate() == pytest.approx(base / 4)

    def test_to_configs_roundtrip(self):
        space = TilingSpace.from_graph(two_matmul_graph(), default_tile_size=16)
        space.apply_naive_tiling()
        configs = space.to_configs()
        assert set(configs) == {"big", "small"}
        assert configs["big"].tile_sizes == [16, 16, 16]

    def test_total_latency_estimate_positive(self):
        space = TilingSpace.from_graph(two_matmul_graph())
        assert space.total_latency_estimate() > 0
        assert TilingSpace(nodes=[]).total_latency_estimate() == 0.0

    def test_work_is_the_ops_flops(self):
        for node in TilingSpace.from_graph(two_matmul_graph()).nodes:
            assert node.work == node.op.flops()

    def test_fresh_space_shares_bounds_and_drops_decisions(self):
        space = TilingSpace.from_graph(two_matmul_graph())
        space.apply_naive_tiling()
        fresh = space.fresh(default_tile_size=8, overall_unroll_size=32)
        assert (fresh.default_tile_size, fresh.overall_unroll_size) == (8, 32)
        for old, new in zip(space.nodes, fresh.nodes):
            assert new.op is old.op
            assert new.loop_bounds is old.loop_bounds
            assert new.work == old.work
            assert new.tile_sizes == [] and new.unroll_factor == 1

    def test_layout_ignores_unroll(self):
        space = TilingSpace.from_graph(two_matmul_graph(), default_tile_size=16)
        space.apply_naive_tiling()
        layout = space.layout()
        space.nodes[0].unroll_factor = 8
        assert space.layout() == layout
        space.nodes[0].tile_loop_order = [1, 0, 2]
        assert space.layout() != layout
