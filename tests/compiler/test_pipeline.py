"""Tests for the end-to-end compilation pipeline."""

import pytest

from repro.compiler import pipeline
from repro.compiler.options import CompilerOptions
from repro.compiler.pipeline import StreamTensorCompiler, compile_model_block
from repro.compiler.report import STAGE_NAMES
from repro.dataflow.structure import DataflowGraph, EdgeKind
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8
from repro.models.config import GPT2
from repro.platform.fpga import AMD_U280
from repro.resource.token_model import EqualizationStrategy


def tiny_graph():
    builder = GraphBuilder("tiny")
    x = builder.input((32, 32), INT8)
    w = builder.weight((32, 32), INT8)
    builder.output(builder.gelu(builder.matmul(x, w)))
    return builder.build()


class TestCompilerPipeline:
    def test_all_stages_timed(self, gpt2_compiled):
        stages = gpt2_compiled.report.stage_seconds
        for name in STAGE_NAMES:
            assert name in stages
            assert stages[name] >= 0.0

    def test_result_has_all_products(self, gpt2_compiled):
        assert gpt2_compiled.fifo_sizing is not None
        assert gpt2_compiled.partition is not None
        assert gpt2_compiled.memory_allocation is not None
        assert gpt2_compiled.bufferization is not None
        assert gpt2_compiled.packing is not None
        assert gpt2_compiled.hls is not None
        assert gpt2_compiled.connectivity is not None
        assert gpt2_compiled.host is not None

    def test_report_summary(self, gpt2_compiled):
        report = gpt2_compiled.report
        assert report.model == "gpt2"
        assert report.num_kernels == len(gpt2_compiled.dataflow_graph.kernels)
        assert report.fits_on_chip
        assert 0.0 < report.memory_reduction_ratio <= 1.0
        assert "kernels" in str(report)

    def test_block_fuses_into_one_group(self, gpt2_compiled):
        assert gpt2_compiled.fusion_plan.num_groups == 1

    def test_stream_edges_have_sized_fifos(self, gpt2_compiled):
        for edge in gpt2_compiled.dataflow_graph.stream_edges():
            assert edge.fifo_depth is not None

    def test_final_graph_still_verifies(self, gpt2_compiled):
        gpt2_compiled.dataflow_graph.verify()

    def test_itensor_types_checked_before_bufferization(self, monkeypatch):
        calls = []
        verify = DataflowGraph.verify
        bufferize = pipeline.bufferize

        def spy_verify(graph):
            calls.append("verify")
            verify(graph)

        def spy_bufferize(graph):
            calls.append("bufferize")
            return bufferize(graph)

        monkeypatch.setattr(DataflowGraph, "verify", spy_verify)
        monkeypatch.setattr(pipeline, "bufferize", spy_bufferize)
        options = CompilerOptions(generate_code=False)
        StreamTensorCompiler(options).compile(tiny_graph())
        # Once after conversion, once at the end of dataflow optimisation.
        assert calls == ["verify", "verify", "bufferize"]

    def test_compile_without_codegen(self):
        options = CompilerOptions(generate_code=False)
        result = StreamTensorCompiler(options).compile(tiny_graph())
        assert result.hls is None
        assert result.connectivity is None

    def test_compile_without_model_config_skips_host(self):
        result = compile_model_block(tiny_graph())
        assert result.host is None
        assert result.hls is not None

    def test_conservative_equalization_option(self):
        options = CompilerOptions(equalization=EqualizationStrategy.CONSERVATIVE,
                                  generate_code=False)
        result = StreamTensorCompiler(options).compile(tiny_graph())
        assert result.fifo_sizing.strategy is EqualizationStrategy.CONSERVATIVE

    def test_exploration_mode(self):
        options = CompilerOptions(explore_tiling=True, exploration_trials=3,
                                  generate_code=False)
        result = StreamTensorCompiler(options).compile(tiny_graph())
        assert result.tiling_space.nodes

    def test_alternate_platform(self):
        options = CompilerOptions(platform=AMD_U280, generate_code=False)
        result = StreamTensorCompiler(options).compile(tiny_graph(), GPT2)
        assert result.report.onchip_budget_bytes == AMD_U280.onchip_memory_bytes

    def test_tight_fusion_budget_creates_multiple_groups(self):
        builder = GraphBuilder("wide")
        x = builder.input((64, 64), INT8)
        w = builder.weight((64, 64), INT8)
        value = x
        for index in range(4):
            value = builder.matmul(value, w, name=f"mm{index}")
        builder.output(value)
        options = CompilerOptions(fusion_memory_fraction=1e-9,
                                  generate_code=False)
        result = StreamTensorCompiler(options).compile(builder.build())
        assert result.fusion_plan.num_groups > 1
        assert all(e.kind is EdgeKind.MEMORY
                   for e in result.dataflow_graph.internal_edges())


class TestCompilerOptions:
    def test_fusion_budget_derived_from_platform(self):
        options = CompilerOptions(fusion_memory_fraction=0.5)
        assert options.fusion_c_max_bytes == pytest.approx(41e6 * 0.5)

    def test_num_dies_defaults_to_platform(self):
        assert CompilerOptions().effective_num_dies == 3
        assert CompilerOptions(num_dies=2).effective_num_dies == 2

    @pytest.mark.parametrize("num_dies", [0, -1, 4, 6])
    def test_num_dies_outside_the_platform_rejected(self, num_dies):
        with pytest.raises(ValueError, match="num_dies must be in 1..3"):
            CompilerOptions(num_dies=num_dies)

    @pytest.mark.parametrize("field", ["default_tile_size",
                                       "overall_unroll_size",
                                       "exploration_trials"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_non_positive_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            CompilerOptions(**{field: value})

    @pytest.mark.parametrize("fraction", [0.0, -1.0, 1.5])
    def test_fusion_memory_fraction_outside_unit_interval_rejected(
            self, fraction):
        with pytest.raises(ValueError, match="fusion_memory_fraction"):
            CompilerOptions(fusion_memory_fraction=fraction)

    def test_whole_onchip_memory_is_a_valid_fusion_budget(self):
        assert CompilerOptions(fusion_memory_fraction=1.0).fusion_c_max_bytes \
            == pytest.approx(41e6)
