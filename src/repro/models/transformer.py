"""Transformer block and whole-model graph construction.

The paper deploys LLMs on the FPGA by fusing one entire transformer block
into a single dataflow accelerator and triggering it once per layer with
different weights (Section 6.1).  The frontend therefore produces the graph
of *one* block, for either the prefill stage (``seq_len`` = prompt length) or
the decode stage (``seq_len`` = 1, attention over the KV cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import DType, INT8
from repro.ir.graph import Graph
from repro.models.config import ModelConfig
from repro.models.layers import attention_block, ffn_block, norm_layer


@dataclass(frozen=True)
class BlockSpec:
    """Shape parameters of one transformer-block instantiation.

    Attributes:
        config: The model configuration.
        seq_len: Number of tokens processed per invocation (prompt length for
            prefill, 1 for decode).
        kv_len: Length of the KV cache visible to attention.
        dtype: Activation data type (the paper uses 8-bit activations).
    """

    config: ModelConfig
    seq_len: int
    kv_len: int
    dtype: DType = INT8


def build_transformer_block(spec: BlockSpec) -> Graph:
    """Build the Linalg graph of one transformer block.

    The block follows the pre-norm decoder structure shared by all Table 7
    models: ``x + Attn(Norm(x))`` followed by ``y + FFN(Norm(y))``.  The new
    key/value projections are exposed as graph outputs so the host runtime
    can append them to the KV cache.
    """
    config = spec.config
    builder = GraphBuilder(name=f"{config.name}_block_s{spec.seq_len}_kv{spec.kv_len}")
    hidden = builder.input((spec.seq_len, config.hidden_size), spec.dtype,
                           name="hidden_in")

    normed = norm_layer(builder, hidden, config, name="input_norm")
    attn_out, new_keys, new_values = attention_block(
        builder, normed, config, spec.seq_len, spec.kv_len,
    )
    attn_residual = builder.add(hidden, attn_out, name="attn_residual")

    post_norm = norm_layer(builder, attn_residual, config, name="post_attn_norm")
    ffn_out = ffn_block(builder, post_norm, config, spec.seq_len)
    block_out = builder.add(attn_residual, ffn_out, name="ffn_residual")

    builder.output(block_out, new_keys, new_values)
    return builder.build()


def build_prefill_block(config: ModelConfig, prompt_len: int,
                        dtype: DType = INT8) -> Graph:
    """Transformer block processing the whole prompt (TTFT path)."""
    spec = BlockSpec(config=config, seq_len=prompt_len, kv_len=prompt_len,
                     dtype=dtype)
    return build_transformer_block(spec)


def build_decode_block(config: ModelConfig, kv_len: int,
                       dtype: DType = INT8) -> Graph:
    """Transformer block generating one token against a KV cache."""
    spec = BlockSpec(config=config, seq_len=1, kv_len=max(1, kv_len),
                     dtype=dtype)
    return build_transformer_block(spec)


def block_flops(config: ModelConfig, seq_len: int, kv_len: int) -> float:
    """Analytical FLOP count of one transformer block (2 ops per MAC)."""
    hidden = config.hidden_size
    qkv = 2.0 * seq_len * hidden * (hidden + 2 * config.kv_hidden_size)
    attn = 2.0 * seq_len * kv_len * hidden * 2  # scores + context
    out_proj = 2.0 * seq_len * hidden * hidden
    up_projections = 2 if config.gated_ffn else 1
    ffn = 2.0 * seq_len * hidden * config.ffn_hidden_size * (up_projections + 1)
    return qkv + attn + out_proj + ffn


def block_flops_coefficients(config: ModelConfig) -> Tuple[int, int]:
    """``(per_token, per_token_kv)`` with ``block_flops(config, t, k) ==
    t * per_token + t * k * per_token_kv``.

    :func:`block_flops` is linear in ``seq_len`` and ``seq_len * kv_len``;
    the coefficients are read off it, so it stays the one definition of
    the FLOP count.  Pricing a slice with them in integer arithmetic is
    exact, and equals :func:`block_flops` bit for bit whenever its float
    partial products are exact integers (below 2**53, far above any slice
    a ``max_seq_len`` in the thousands admits).
    """
    per_token = int(block_flops(config, 1, 0))
    return per_token, int(block_flops(config, 1, 1)) - per_token


def model_flops(config: ModelConfig, seq_len: int, kv_len: int) -> float:
    """FLOPs of a full forward pass (all layers plus the LM head)."""
    per_block = block_flops(config, seq_len, kv_len)
    lm_head = 2.0 * seq_len * config.hidden_size * config.vocab_size
    return config.num_layers * per_block + lm_head
