"""End-to-end integration tests across the whole compiler stack."""

import pytest

from repro.compiler import CompilerOptions, StreamTensorCompiler
from repro.dataflow.structure import TaskKind
from repro.itensor.verify import verify_connection, verify_fifo_tokens
from repro.models.config import MODEL_CONFIGS
from repro.models.transformer import build_decode_block, build_prefill_block
from repro.platform.fpga import AMD_U55C
from repro.sim.builder import build_simulation


@pytest.mark.parametrize("model_name", list(MODEL_CONFIGS), ids=list(MODEL_CONFIGS))
class TestEveryModelCompiles:
    def test_decode_block_compiles_and_fits(self, model_name):
        config = MODEL_CONFIGS[model_name]
        graph = build_decode_block(config, kv_len=64)
        result = StreamTensorCompiler(CompilerOptions()).compile(graph, config)
        assert result.fusion_plan.num_groups == 1
        assert not result.memory_allocation.spilled
        assert result.report.fits_on_chip

    def test_prefill_block_compiles(self, model_name):
        config = MODEL_CONFIGS[model_name]
        graph = build_prefill_block(config, 64)
        options = CompilerOptions(generate_code=False)
        result = StreamTensorCompiler(options).compile(graph, config)
        assert result.report.num_kernels > 5
        assert result.report.memory_reduction_ratio < 0.6


class TestTypeSafetyOfCompiledDesign:
    def test_every_stream_edge_is_verifiable(self, gpt2_compiled):
        """Every FIFO connection either matches exactly or has a converter —
        the guarantee the itensor typing system exists to provide."""
        for edge in gpt2_compiled.dataflow_graph.stream_edges():
            verify_connection(edge.producer_type, edge.consumer_type,
                              allow_converter=True)
            if not edge.needs_converter:
                verify_fifo_tokens(edge.producer_type, edge.consumer_type)

    def test_converter_buffers_fit_within_budget(self, gpt2_compiled):
        graph = gpt2_compiled.dataflow_graph
        assert graph.converter_bytes() < AMD_U55C.onchip_memory_bytes

    def test_memory_edges_have_dma_tasks(self, gpt2_compiled):
        graph = gpt2_compiled.dataflow_graph
        for edge in graph.memory_edges():
            owner = edge.consumer or edge.producer
            if owner is None:
                continue
            assert any(t.kind in (TaskKind.DMA_LOAD, TaskKind.DMA_STORE)
                       for t in owner.tasks)


class TestCompiledDesignSimulates:
    def test_gpt2_decode_block_runs_without_deadlock(self, gpt2_compiled):
        simulation = build_simulation(gpt2_compiled.dataflow_graph, AMD_U55C)
        outcome = simulation.run(max_cycles=5e8)
        assert not outcome.deadlocked

    def test_all_kernels_finish(self, gpt2_compiled):
        simulation = build_simulation(gpt2_compiled.dataflow_graph, AMD_U55C)
        outcome = simulation.run(max_cycles=5e8)
        graph_kernels = {k.name for k in gpt2_compiled.dataflow_graph.kernels}
        for name in graph_kernels:
            assert outcome.kernel_finish_times[name] > 0
