"""Tests for the transformer block graph builders."""

import pytest

from repro.models.config import GPT2, LLAMA, MODEL_CONFIGS, QWEN
from repro.models.layers import attention_scores, head_projection
from repro.models.transformer import (
    block_flops,
    build_decode_block,
    build_prefill_block,
    model_flops,
)
from repro.ir.builder import GraphBuilder


class TestBlockConstruction:
    @pytest.mark.parametrize("config", list(MODEL_CONFIGS.values()),
                             ids=list(MODEL_CONFIGS))
    def test_blocks_build_and_verify(self, config):
        graph = build_prefill_block(config, 32)
        graph.verify()
        assert len(graph.outputs) == 3  # hidden, new keys, new values

    def test_decode_block_has_seq_one(self):
        graph = build_decode_block(GPT2, kv_len=64)
        hidden_in = graph.inputs[0]
        assert hidden_in.type.shape[0] == 1

    def test_kv_cache_inputs_present(self):
        graph = build_decode_block(QWEN, kv_len=128)
        names = {v.name for v in graph.inputs}
        assert any("k_cache" in name for name in names)
        assert any("v_cache" in name for name in names)

    def test_gated_ffn_has_two_up_projections(self):
        gated = build_prefill_block(LLAMA, 16)
        plain = build_prefill_block(GPT2, 16)
        gated_matmuls = sum(1 for op in gated.ops if op.kind == "matmul")
        plain_matmuls = sum(1 for op in plain.ops if op.kind == "matmul")
        assert gated_matmuls == plain_matmuls + 1

    def test_norm_kind_follows_config(self):
        gpt2_kinds = {op.kind for op in build_prefill_block(GPT2, 8).ops}
        llama_kinds = {op.kind for op in build_prefill_block(LLAMA, 8).ops}
        assert "layer_norm" in gpt2_kinds and "rms_norm" not in gpt2_kinds
        assert "rms_norm" in llama_kinds and "layer_norm" not in llama_kinds

    def test_weights_have_correct_total_size(self):
        """Graph weights must add up to roughly one layer's parameters."""
        graph = build_prefill_block(GPT2, 8)
        weight_elements = sum(op.result_type.num_elements
                              for op in graph.ops if op.kind == "weight")
        assert weight_elements == pytest.approx(GPT2.layer_params(), rel=0.01)


class TestAttentionHelpers:
    def test_head_projection_shape(self):
        builder = GraphBuilder()
        x = builder.input((8, GPT2.hidden_size))
        q = head_projection(builder, x, GPT2, GPT2.num_kv_heads, 1, 8, "q")
        assert q.type.shape == (16, 1, 8, 64)

    def test_attention_scores_shape_mismatch(self):
        builder = GraphBuilder()
        q = builder.input((4, 2, 8, 64))
        k = builder.input((2, 16, 64))
        with pytest.raises(ValueError):
            attention_scores(builder, q, k)


class TestFlopCounts:
    def test_block_flops_match_graph(self):
        """The analytical block FLOPs track the per-op graph FLOPs closely."""
        seq = 32
        graph = build_prefill_block(GPT2, seq)
        graph_flops = sum(op.flops() for op in graph.ops
                          if op.kind in ("matmul", "head_projection",
                                         "attention_scores", "attention_context",
                                         "output_projection"))
        analytic = block_flops(GPT2, seq, seq)
        assert graph_flops == pytest.approx(analytic, rel=0.05)

    def test_model_flops_include_lm_head(self):
        per_block = block_flops(GPT2, 1, 64)
        total = model_flops(GPT2, 1, 64)
        assert total > GPT2.num_layers * per_block

    def test_decode_flops_much_smaller_than_prefill(self):
        assert block_flops(GPT2, 1, 64) < block_flops(GPT2, 64, 64) / 10

    def test_gqa_reduces_kv_projection_flops(self):
        """Qwen's 2 KV heads shrink K/V projections relative to MHA."""
        mha_like = QWEN.hidden_size * QWEN.hidden_size * 2
        gqa = QWEN.hidden_size * QWEN.kv_hidden_size * 2
        assert gqa < mha_like / 3
