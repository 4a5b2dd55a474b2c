"""Tests for intensity-driven unrolling (max-heap latency balancing)."""

import math

from repro.dse.tiling_space import TilingSpace
from repro.dse.unrolling import (
    intensity_driven_unrolling,
    max_unroll_for,
)
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8


def balance_ratio(space):
    """Slowest over fastest kernel latency estimate (1.0 = balanced)."""
    latencies = [node.latency_estimate() for node in space.nodes]
    return max(latencies) / min(latencies)


def unbalanced_graph():
    """One huge matmul and one tiny elementwise op."""
    builder = GraphBuilder("net")
    x = builder.input((128, 128), INT8)
    w = builder.weight((128, 128), INT8)
    y = builder.matmul(x, w, name="heavy")
    z = builder.gelu(y, name="light")
    builder.output(z)
    return builder.build()


def make_space(budget=64, tile=16):
    space = TilingSpace.from_graph(unbalanced_graph(), default_tile_size=tile,
                                   overall_unroll_size=budget)
    space.apply_naive_tiling()
    return space


class TestIntensityDrivenUnrolling:
    def test_budget_is_respected(self):
        space = make_space(budget=64)
        intensity_driven_unrolling(space)
        assert space.total_unroll() <= 64

    def test_slowest_kernel_gets_most_unrolling(self):
        space = make_space(budget=64)
        intensity_driven_unrolling(space)
        assert space.node("heavy").unroll_factor > space.node("light").unroll_factor

    def test_balancing_improves_latency_ratio(self):
        space = make_space(budget=256)
        before = balance_ratio(space)
        intensity_driven_unrolling(space)
        after = balance_ratio(space)
        assert after <= before

    def test_decisions_record_progress(self):
        space = make_space(budget=32)
        decisions = intensity_driven_unrolling(space)
        assert decisions
        for decision in decisions:
            assert decision.new_factor > decision.old_factor
            assert decision.latency_after <= decision.latency_before

    def test_unroll_never_exceeds_tile_work(self):
        space = make_space(budget=10_000, tile=4)
        intensity_driven_unrolling(space)
        for node in space.nodes:
            assert node.unroll_factor <= max_unroll_for(node)

    def test_empty_space_is_a_noop(self):
        space = TilingSpace(nodes=[])
        assert intensity_driven_unrolling(space) == []

    def test_doubling_steps(self):
        space = make_space(budget=6)
        decisions = intensity_driven_unrolling(space, step_factor=2)
        # First step doubles 1 -> 2 on the heavy kernel.
        assert decisions[0].kernel == "heavy"
        assert decisions[0].new_factor == 2


class TestMaxUnroll:
    def test_max_unroll_is_tile_volume(self):
        space = make_space(tile=8)
        node = space.node("heavy")
        assert max_unroll_for(node) == math.prod(node.tile_sizes)

    def test_max_unroll_without_tiles_uses_bounds(self):
        space = TilingSpace.from_graph(unbalanced_graph())
        node = space.node("light")
        assert max_unroll_for(node) == math.prod(node.loop_bounds)
