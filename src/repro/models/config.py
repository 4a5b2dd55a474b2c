"""LLM configurations (Table 7 of the paper).

The paper evaluates four Huggingface models — GPT-2, Qwen (Qwen2.5-0.5B),
Llama (Llama-3.2-1B) and Gemma (Gemma-3-1B-it) — using the configuration
values reproduced here verbatim from Table 7.  These configs drive the
frontend graph builders and the end-to-end latency/energy evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class ModelConfig:
    """Configuration of a decoder-only transformer LLM.

    Attributes:
        name: Model family name.
        num_layers: Number of transformer blocks.
        hidden_size: Model (embedding) dimension.
        ffn_hidden_size: Feed-forward intermediate dimension.
        num_heads: Attention heads.
        num_kv_heads: Key/value heads (grouped-query attention); equals
            ``num_heads`` for classic multi-head attention.
        activation: FFN activation function (``"gelu"`` or ``"silu"``).
        norm: Normalisation type (``"layer_norm"`` or ``"rms_norm"``).
        gated_ffn: True for SwiGLU/GeGLU-style gated FFNs (two up projections).
        vocab_size: Vocabulary size (for embedding / LM-head cost).
        max_seq_len: Maximum sequence length hint for dynamic-shape handling.
    """

    name: str
    num_layers: int
    hidden_size: int
    ffn_hidden_size: int
    num_heads: int
    num_kv_heads: int
    activation: str
    norm: str
    gated_ffn: bool
    vocab_size: int
    max_seq_len: int = 1024

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"{self.name}: hidden size {self.hidden_size} is not divisible "
                f"by {self.num_heads} heads"
            )
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"{self.name}: {self.num_heads} heads not divisible by "
                f"{self.num_kv_heads} KV heads"
            )
        if self.activation not in ("gelu", "silu"):
            raise ValueError(f"{self.name}: unsupported activation {self.activation}")
        if self.norm not in ("layer_norm", "rms_norm"):
            raise ValueError(f"{self.name}: unsupported norm {self.norm}")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def kv_group_size(self) -> int:
        """Query heads per KV head."""
        return self.num_heads // self.num_kv_heads

    @property
    def kv_hidden_size(self) -> int:
        return self.num_kv_heads * self.head_dim

    # ------------------------------------------------------------------
    # Parameter counting (used by the memory-bound latency model)
    # ------------------------------------------------------------------
    def attention_params(self) -> int:
        """Parameters of one attention block (Q/K/V/output projections)."""
        q = self.hidden_size * self.hidden_size
        kv = 2 * self.hidden_size * self.kv_hidden_size
        out = self.hidden_size * self.hidden_size
        return q + kv + out

    def ffn_params(self) -> int:
        """Parameters of one feed-forward block."""
        up_projections = 2 if self.gated_ffn else 1
        up = up_projections * self.hidden_size * self.ffn_hidden_size
        down = self.ffn_hidden_size * self.hidden_size
        return up + down

    def layer_params(self) -> int:
        norms = 2 * self.hidden_size
        return self.attention_params() + self.ffn_params() + norms

    def total_params(self) -> int:
        embedding = self.vocab_size * self.hidden_size
        return self.num_layers * self.layer_params() + embedding

    def kv_cache_bytes_per_token(self, bytes_per_element: float = 1.0) -> float:
        """KV-cache bytes appended per generated token (both K and V)."""
        return 2 * self.num_layers * self.kv_hidden_size * bytes_per_element


# Table 7 configurations ------------------------------------------------------
GPT2 = ModelConfig(
    name="gpt2",
    num_layers=24,
    hidden_size=1024,
    ffn_hidden_size=4096,
    num_heads=16,
    num_kv_heads=16,
    activation="gelu",
    norm="layer_norm",
    gated_ffn=False,
    vocab_size=50257,
)

QWEN = ModelConfig(
    name="qwen",
    num_layers=24,
    hidden_size=896,
    ffn_hidden_size=4864,
    num_heads=14,
    num_kv_heads=2,
    activation="silu",
    norm="rms_norm",
    gated_ffn=True,
    vocab_size=151936,
)

LLAMA = ModelConfig(
    name="llama",
    num_layers=22,
    hidden_size=2048,
    ffn_hidden_size=5632,
    num_heads=32,
    num_kv_heads=4,
    activation="silu",
    norm="rms_norm",
    gated_ffn=True,
    vocab_size=128256,
)

GEMMA = ModelConfig(
    name="gemma",
    num_layers=26,
    hidden_size=1152,
    ffn_hidden_size=6912,
    num_heads=4,
    num_kv_heads=1,
    activation="gelu",
    norm="rms_norm",
    gated_ffn=True,
    vocab_size=262144,
)

MODEL_CONFIGS: Dict[str, ModelConfig] = {
    "gpt2": GPT2,
    "qwen": QWEN,
    "llama": LLAMA,
    "gemma": GEMMA,
}


def get_model_config(name: str) -> ModelConfig:
    """Look up a Table 7 model configuration by name."""
    try:
        return MODEL_CONFIGS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_CONFIGS)}"
        ) from None
