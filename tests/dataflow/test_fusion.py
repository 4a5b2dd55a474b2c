"""Tests for stream-based kernel fusion (Algorithm 2)."""

import pytest

from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.fusion import (
    edge_fusion_cost,
    explore_fusion,
    fuse_kernels,
    fusion_memory_report,
)
from repro.dataflow.structure import EdgeKind
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8


def chain_graph(num_ops=4, size=64):
    builder = GraphBuilder("chain")
    value = builder.input((size, size), INT8)
    for index in range(num_ops):
        value = builder.gelu(value, name=f"op{index}")
    builder.output(value)
    return builder.build()


class TestExploreFusion:
    def test_unlimited_budget_fuses_everything(self):
        dataflow = convert_to_dataflow(chain_graph())
        plan = explore_fusion(dataflow, c_max=1e12)
        assert plan.num_groups == 1

    def test_zero_budget_keeps_kernels_separate(self):
        builder = GraphBuilder()
        x = builder.input((64, 64), INT8)
        w = builder.weight((64, 64), INT8)
        y = builder.matmul(x, w)          # output layout row-major tiles
        z = builder.matmul(y, w)          # consumer re-reads -> converter cost
        builder.output(z)
        dataflow = convert_to_dataflow(builder.build())
        plan = explore_fusion(dataflow, c_max=0.0)
        # Fusion costs (converter + FIFO) exceed 0, so every kernel is alone.
        assert plan.num_groups == 2

    def test_sentinel_group_zero_stays_empty(self):
        dataflow = convert_to_dataflow(chain_graph())
        plan = explore_fusion(dataflow, c_max=1e12)
        assert plan.groups[0] == set()

    def test_costs_tracked_per_group(self):
        dataflow = convert_to_dataflow(chain_graph())
        plan = explore_fusion(dataflow, c_max=1e12)
        assert all(cost >= 0.0 for cost in plan.costs)
        assert len(plan.costs) == len(plan.groups)

    def test_group_of_unknown_kernel_raises(self):
        dataflow = convert_to_dataflow(chain_graph())
        plan = explore_fusion(dataflow, c_max=1e12)
        with pytest.raises(KeyError):
            plan.group_of("nonexistent")


class TestApplyFusion:
    def test_same_group_edges_become_streams(self):
        dataflow = convert_to_dataflow(chain_graph())
        plan = fuse_kernels(dataflow, c_max=1e12)
        assert plan.num_groups == 1
        internal = dataflow.internal_edges()
        assert internal and all(e.kind is EdgeKind.STREAM for e in internal)

    def test_cross_group_edges_stay_in_memory(self):
        dataflow = convert_to_dataflow(chain_graph())
        fuse_kernels(dataflow, c_max=0.0)
        assert all(e.kind is EdgeKind.MEMORY for e in dataflow.internal_edges())

    def test_converters_only_where_needed(self):
        dataflow = convert_to_dataflow(chain_graph())
        fuse_kernels(dataflow, c_max=1e12)
        for edge in dataflow.stream_edges():
            if edge.needs_converter:
                assert edge.converter is not None
            else:
                assert edge.converter is None

    def test_elementwise_chain_needs_no_converters(self):
        dataflow = convert_to_dataflow(chain_graph())
        fuse_kernels(dataflow, c_max=1e12)
        assert dataflow.converter_bytes() == 0.0

    def test_fusion_indices_written_to_kernels(self):
        dataflow = convert_to_dataflow(chain_graph())
        plan = fuse_kernels(dataflow, c_max=1e12)
        for kernel in dataflow.kernels:
            assert kernel.fusion_index == plan.group_of(kernel.name)


class TestEdgeFusionCost:
    def test_parameter_like_edges_cost_zero(self):
        dataflow = convert_to_dataflow(chain_graph())
        external = dataflow.external_input_edges()[0]
        assert edge_fusion_cost(external) == 0.0

    def test_compatible_edge_cost_is_fifo_only(self):
        dataflow = convert_to_dataflow(chain_graph())
        edge = dataflow.internal_edges()[0]
        cost = edge_fusion_cost(edge, fifo_depth_estimate=2)
        assert cost == pytest.approx(2 * edge.producer_type.element_bytes)


class TestMemoryReport:
    def test_fusion_reduces_intermediate_memory(self, gpt2_prefill_graph):
        from repro.dse import build_tiling_space
        space = build_tiling_space(gpt2_prefill_graph, 16, 128)
        dataflow = convert_to_dataflow(gpt2_prefill_graph, space.to_configs())
        fuse_kernels(dataflow, c_max=41e6)
        report = fusion_memory_report(dataflow)
        assert report["fused_bytes"] < report["original_bytes"]
        assert 0.0 < report["ratio"] < 0.6

    def test_gpt2_block_fuses_into_single_group(self, gpt2_prefill_graph):
        """The paper fuses an entire transformer block onto one FPGA."""
        from repro.dse import build_tiling_space
        space = build_tiling_space(gpt2_prefill_graph, 16, 128)
        dataflow = convert_to_dataflow(gpt2_prefill_graph, space.to_configs())
        plan = fuse_kernels(dataflow, c_max=41e6)
        assert plan.num_groups == 1
