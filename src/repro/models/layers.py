"""Transformer layer graph builders.

These helpers construct the Linalg-level graphs for the attention and
feed-forward sub-blocks of the Table 7 models.  Multi-head and grouped-query
attention are expressed as single structured ops over a
``(kv_heads, group, seq, head_dim)`` layout, which keeps every indexing map
affine (no integer division) while preserving the exact FLOP counts,
parameter sizes and intermediate-tensor sizes that the compiler and the
evaluation depend on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ir.affine import AffineMap
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import DType
from repro.ir.ops import IteratorType, LinalgOp, Value
from repro.ir.types import TensorType
from repro.models.config import ModelConfig

P = IteratorType.PARALLEL
R = IteratorType.REDUCTION


def _add_op(builder: GraphBuilder, kind: str, inputs: List[Value],
            result_shape: Tuple[int, ...], iterators: List[IteratorType],
            maps: List[AffineMap], name: str, dtype: Optional[DType] = None,
            ) -> Value:
    """Create a custom structured op through the builder's graph."""
    result_type = TensorType(result_shape, dtype or inputs[0].type.dtype)
    op = LinalgOp(kind, inputs, result_type, iterators, maps,
                  name=builder._unique(name))
    return builder.graph.add_op(op)


# ----------------------------------------------------------------------
# Attention sub-block
# ----------------------------------------------------------------------
def head_projection(builder: GraphBuilder, hidden: Value, config: ModelConfig,
                    num_kv_heads: int, group: int, seq_len: int,
                    name: str) -> Value:
    """Project ``(seq, hidden)`` activations to ``(kv_heads, group, seq, head_dim)``.

    The projection weight has shape ``(kv_heads, group, head_dim, hidden)``;
    FLOPs equal ``seq * hidden * kv_heads * group * head_dim * 2``, matching a
    plain linear layer of output width ``kv_heads * group * head_dim``.
    """
    head_dim = config.head_dim
    weight = builder.weight((num_kv_heads, group, head_dim, config.hidden_size),
                            hidden.type.dtype, name=f"{name}_weight")
    iterators = [P, P, P, P, R]  # (kvh, g, s, d, k)
    maps = [
        AffineMap.from_results(5, [2, 4]),          # x[s, k]
        AffineMap.from_results(5, [0, 1, 3, 4]),    # w[kvh, g, d, k]
        AffineMap.from_results(5, [0, 1, 2, 3]),    # out[kvh, g, s, d]
    ]
    return _add_op(builder, "head_projection", [hidden, weight],
                   (num_kv_heads, group, seq_len, head_dim), iterators, maps,
                   name=name)


def attention_scores(builder: GraphBuilder, queries: Value, keys: Value,
                     name: str = "attn_scores") -> Value:
    """Scores ``(kvh, g, seq, kv_len)`` from queries ``(kvh, g, seq, d)`` and
    keys ``(kvh, kv_len, d)`` (each KV head serves its query group)."""
    kvh, group, seq, head_dim = queries.type.shape
    kvh_k, kv_len, head_dim_k = keys.type.shape
    if kvh != kvh_k or head_dim != head_dim_k:
        raise ValueError(
            f"attention shape mismatch: {queries.type} vs {keys.type}"
        )
    iterators = [P, P, P, P, R]  # (kvh, g, s, kv, d)
    maps = [
        AffineMap.from_results(5, [0, 1, 2, 4]),  # q[kvh, g, s, d]
        AffineMap.from_results(5, [0, 3, 4]),     # k[kvh, kv, d]
        AffineMap.from_results(5, [0, 1, 2, 3]),  # scores[kvh, g, s, kv]
    ]
    return _add_op(builder, "attention_scores", [queries, keys],
                   (kvh, group, seq, kv_len), iterators, maps, name=name)


def attention_context(builder: GraphBuilder, probs: Value, values: Value,
                      name: str = "attn_context") -> Value:
    """Context ``(kvh, g, seq, d)`` from probabilities ``(kvh, g, seq, kv)``
    and values ``(kvh, kv, d)``."""
    kvh, group, seq, kv_len = probs.type.shape
    kvh_v, kv_len_v, head_dim = values.type.shape
    if kvh != kvh_v or kv_len != kv_len_v:
        raise ValueError(f"context shape mismatch: {probs.type} vs {values.type}")
    iterators = [P, P, P, P, R]  # (kvh, g, s, d, kv)
    maps = [
        AffineMap.from_results(5, [0, 1, 2, 4]),  # probs[kvh, g, s, kv]
        AffineMap.from_results(5, [0, 4, 3]),     # v[kvh, kv, d]
        AffineMap.from_results(5, [0, 1, 2, 3]),  # ctx[kvh, g, s, d]
    ]
    return _add_op(builder, "attention_context", [probs, values],
                   (kvh, group, seq, head_dim), iterators, maps, name=name)


def output_projection(builder: GraphBuilder, context: Value, config: ModelConfig,
                      seq_len: int, name: str = "attn_output") -> Value:
    """Project context ``(kvh, g, seq, d)`` back to ``(seq, hidden)``."""
    kvh, group, _, head_dim = context.type.shape
    weight = builder.weight((kvh, group, head_dim, config.hidden_size),
                            context.type.dtype, name=f"{name}_weight")
    iterators = [P, P, R, R, R]  # (s, h, kvh, g, d)
    maps = [
        AffineMap.from_results(5, [2, 3, 0, 4]),  # ctx[kvh, g, s, d]
        AffineMap.from_results(5, [2, 3, 4, 1]),  # w[kvh, g, d, h]
        AffineMap.from_results(5, [0, 1]),        # out[s, h]
    ]
    return _add_op(builder, "output_projection", [context, weight],
                   (seq_len, config.hidden_size), iterators, maps, name=name)


def attention_block(builder: GraphBuilder, hidden: Value, config: ModelConfig,
                    seq_len: int, kv_len: int,
                    use_rotary: bool = True) -> Tuple[Value, Value, Value]:
    """Build the full attention sub-block.

    Returns the attention output ``(seq, hidden)`` plus the freshly computed
    key and value projections (which the host appends to the KV cache).
    """
    kvh = config.num_kv_heads
    group = config.kv_group_size
    queries = head_projection(builder, hidden, config, kvh, group, seq_len, "q_proj")
    new_keys = head_projection(builder, hidden, config, kvh, 1, seq_len, "k_proj")
    new_values = head_projection(builder, hidden, config, kvh, 1, seq_len, "v_proj")
    if use_rotary and config.norm == "rms_norm":
        queries = builder.rotary(queries, name="q_rotary")
        new_keys = builder.rotary(new_keys, name="k_rotary")

    # The attention reads the full KV cache (past tokens plus the current
    # ones); the cache lives in external memory and enters as a graph input.
    keys = builder.input((kvh, kv_len, config.head_dim), hidden.type.dtype,
                         name="k_cache")
    values = builder.input((kvh, kv_len, config.head_dim), hidden.type.dtype,
                           name="v_cache")

    scores = attention_scores(builder, queries, keys)
    probs = builder.softmax(scores, axis=-1, name="attn_softmax")
    context = attention_context(builder, probs, values)
    output = output_projection(builder, context, config, seq_len)
    return output, new_keys, new_values


# ----------------------------------------------------------------------
# Feed-forward sub-block
# ----------------------------------------------------------------------
def ffn_block(builder: GraphBuilder, hidden: Value, config: ModelConfig,
              seq_len: int) -> Value:
    """Build the feed-forward sub-block (plain or gated)."""
    dtype = hidden.type.dtype
    up_weight = builder.weight((config.hidden_size, config.ffn_hidden_size),
                               dtype, name="ffn_up_weight")
    up = builder.matmul(hidden, up_weight, name="ffn_up")
    activation = (builder.gelu if config.activation == "gelu" else builder.silu)
    if config.gated_ffn:
        gate_weight = builder.weight((config.hidden_size, config.ffn_hidden_size),
                                     dtype, name="ffn_gate_weight")
        gate = builder.matmul(hidden, gate_weight, name="ffn_gate")
        gate = activation(gate, name="ffn_act")
        up = builder.mul(gate, up, name="ffn_gated")
    else:
        up = activation(up, name="ffn_act")
    down_weight = builder.weight((config.ffn_hidden_size, config.hidden_size),
                                 dtype, name="ffn_down_weight")
    return builder.matmul(up, down_weight, name="ffn_down")


def norm_layer(builder: GraphBuilder, hidden: Value, config: ModelConfig,
               name: str) -> Value:
    """LayerNorm (GPT-2) or RMSNorm (the emerging LLMs)."""
    weight = builder.weight((hidden.type.shape[-1],), hidden.type.dtype,
                            name=f"{name}_weight")
    if config.norm == "layer_norm":
        return builder.layer_norm(hidden, weight, name=name)
    return builder.rms_norm(hidden, weight, name=name)
