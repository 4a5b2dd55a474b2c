"""Tests for HLS, connectivity and host-runtime code generation."""

import pytest

from repro.codegen.connectivity import generate_connectivity
from repro.codegen.hls import generate_hls
from repro.codegen.host import build_host_plan, generate_host
from repro.models.config import GPT2
from repro.platform.fpga import AMD_U55C


class TestHlsCodegen:
    def test_top_function_emitted(self, gpt2_compiled):
        artifact = gpt2_compiled.hls
        assert artifact is not None
        assert artifact.top_function in artifact.source
        assert "#pragma HLS DATAFLOW" in artifact.source

    def test_one_function_per_task(self, gpt2_compiled):
        artifact = gpt2_compiled.hls
        graph = gpt2_compiled.dataflow_graph
        total_tasks = sum(len(k.tasks) for k in graph.kernels)
        assert len(artifact.functions) == total_tasks

    def test_stream_depths_materialised(self, gpt2_compiled):
        artifact = gpt2_compiled.hls
        graph = gpt2_compiled.dataflow_graph
        for edge in graph.stream_edges():
            assert f"depth={edge.fifo_depth or 2}" in artifact.source

    def test_stream_declarations_follow_stream_type(self, gpt2_compiled):
        source = gpt2_compiled.hls.source
        for edge in gpt2_compiled.dataflow_graph.stream_edges():
            fifo = edge.stream_type()
            elem = "ap_int<8>" if not fifo.dtype.is_float else "float"
            if fifo.vector_shape is not None:
                elem = f"hls::vector<{elem}, {fifo.token_elements}>"
            name = f"fifo_{edge.uid}"
            assert f"  hls::stream<{elem}> {name};" in source
            assert f"#pragma HLS STREAM variable={name} depth={fifo.depth}" in source

    def test_unroll_pragmas_present(self, gpt2_compiled):
        assert "#pragma HLS UNROLL" in gpt2_compiled.hls.source
        assert "#pragma HLS PIPELINE" in gpt2_compiled.hls.source

    def test_regenerating_directly_matches_kernel_count(self, gpt2_compiled):
        artifact = generate_hls(gpt2_compiled.dataflow_graph, top_name="custom_top")
        assert artifact.top_function == "custom_top"
        assert artifact.line_count > 100


class TestConnectivity:
    def test_memory_ports_assigned_to_hbm_channels(self, gpt2_compiled):
        config = gpt2_compiled.connectivity
        assert config is not None
        graph = gpt2_compiled.dataflow_graph
        owned_memory_edges = [e for e in graph.memory_edges()
                              if (e.consumer or e.producer) is not None]
        assert config.num_memory_ports == len(owned_memory_edges)
        assert all(0 <= ch < 32 for ch in config.hbm_assignments.values())

    def test_every_kernel_gets_an_slr(self, gpt2_compiled):
        config = gpt2_compiled.connectivity
        graph = gpt2_compiled.dataflow_graph
        assert set(config.slr_assignments) == {k.name for k in graph.kernels}
        assert all(0 <= slr < AMD_U55C.num_dies
                   for slr in config.slr_assignments.values())

    def test_config_text_format(self, gpt2_compiled):
        text = gpt2_compiled.connectivity.text
        assert text.startswith("[connectivity]")
        assert "sp=" in text and "slr=" in text

    def test_custom_channel_count(self, gpt2_compiled):
        config = generate_connectivity(gpt2_compiled.dataflow_graph, AMD_U55C,
                                       num_hbm_channels=4)
        assert all(ch < 4 for ch in config.hbm_assignments.values())

    def test_die_beyond_the_platform_rejected(self, gpt2_compiled,
                                              monkeypatch):
        kernel = gpt2_compiled.dataflow_graph.kernels[0]
        monkeypatch.setattr(kernel, "die_assignment", AMD_U55C.num_dies)
        with pytest.raises(ValueError, match="has 3 SLRs"):
            generate_connectivity(gpt2_compiled.dataflow_graph, AMD_U55C)


class TestHostCodegen:
    def test_host_plan_buffers(self, gpt2_compiled):
        plan = build_host_plan(gpt2_compiled.dataflow_graph, GPT2, AMD_U55C)
        kinds = {b.kind for b in plan.buffers}
        assert "parameter" in kinds
        assert plan.parameter_bytes > 0
        assert plan.invocations_per_token == GPT2.num_layers

    def test_parameter_bytes_use_weight_quantization(self, gpt2_compiled):
        plan = build_host_plan(gpt2_compiled.dataflow_graph, GPT2, AMD_U55C)
        # W4 weights: per-layer parameter bytes times layer count at 0.5 B/elem.
        assert plan.parameter_bytes == pytest.approx(
            GPT2.layer_params() * GPT2.num_layers * 0.5, rel=0.2)

    def test_host_source_mentions_layer_loop(self, gpt2_compiled):
        artifact = gpt2_compiled.host
        assert artifact is not None
        assert f"layer < {GPT2.num_layers}" in artifact.source
        assert artifact.line_count > 10

    def test_generate_host_standalone(self, gpt2_compiled):
        artifact = generate_host(gpt2_compiled.dataflow_graph, GPT2, AMD_U55C)
        assert sum(buffer.bytes for buffer in artifact.plan.buffers) > 0
