"""End-to-end LLM inference latency models (FPGA and GPU).

The paper reports three metrics per [input:output] workload (Tables 4/5):

* **Latency** — wall-clock time of the whole request;
* **TTFT** — time to first token, i.e. the prefill pass over the prompt;
* **Speed** — decode throughput, ``output_len / (latency - TTFT)``.

For the StreamTensor accelerator the model follows how the generated design
actually executes (Section 6.1): one fused transformer-block accelerator is
triggered once per layer, streaming that layer's weights from HBM while the
activations stay on-chip.  Each block invocation therefore costs the maximum
of its weight-streaming time and its compute time, plus a small trigger
overhead, and the LM head is one more weight-streaming pass per generated
token.  When the compiled design's intermediate-result memory is large the
FIFO sizing falls back to the *Conservative* equalisation strategy, which
reduces kernel overlap and dilates the block time (the effect the paper
reports for Llama).

For the GPUs the model is a roofline per forward pass plus per-kernel-launch
framework overhead, which dominates small-model decoding — exactly why the
A100's decode speed in Table 5 is far below its memory-bandwidth bound.

Calibration constants represent achievable fractions of peak for this class
of design; they are fixed across all models and workloads (nothing is fitted
per experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.models.config import ModelConfig
from repro.models.workload import Workload
from repro.platform.fpga import AMD_U55C, FpgaPlatform
from repro.platform.gpu import GpuPlatform
from repro.resource.token_model import EqualizationStrategy


@dataclass(frozen=True)
class LatencyBreakdown:
    """Latency metrics of one [input:output] workload on one platform."""

    platform: str
    model: str
    workload: Workload
    ttft_s: float
    decode_time_s: float
    energy_j: float

    @property
    def latency_s(self) -> float:
        return self.ttft_s + self.decode_time_s

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def ttft_ms(self) -> float:
        return self.ttft_s * 1e3

    @property
    def decode_speed_tokens_per_s(self) -> float:
        if self.decode_time_s <= 0:
            return 0.0
        return self.workload.output_len / self.decode_time_s

    @property
    def tokens_per_joule(self) -> float:
        if self.energy_j <= 0:
            return 0.0
        return self.workload.output_len / self.energy_j


# ----------------------------------------------------------------------
# StreamTensor accelerator (FPGA)
# ----------------------------------------------------------------------
@dataclass
class FpgaPerformanceModel:
    """Analytical performance model of a StreamTensor-generated accelerator.

    Attributes:
        platform: The FPGA card (defaults to the paper's U55C).
        weight_stream_gbs: Achieved HBM bandwidth for streaming weights into
            the fused block (a single block uses a subset of the 32 HBM
            pseudo-channels, far below the card's aggregate peak).
        compute_efficiency: Achieved fraction of peak INT8 throughput for the
            spatially-unrolled compute kernels.
        per_layer_overhead_s: Accelerator trigger + weight-pointer switch per
            block invocation.
        per_pass_overhead_s: Host synchronisation per forward pass.
        average_power_fraction: Average board power as a fraction of TDP.
        conservative_threshold_fraction: If the fused design's intermediate
            memory exceeds this fraction of on-chip memory, FIFO sizing uses
            the Conservative strategy and kernel overlap degrades.
        conservative_slowdown: Block-time dilation under Conservative sizing.
    """

    platform: FpgaPlatform = field(default_factory=lambda: AMD_U55C)
    weight_stream_gbs: float = 48.0
    compute_efficiency: float = 0.025
    per_layer_overhead_s: float = 25e-6
    per_pass_overhead_s: float = 0.5e-3
    average_power_fraction: float = 0.60
    conservative_threshold_fraction: float = 0.08
    conservative_slowdown: float = 1.45

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def effective_ops_per_s(self) -> float:
        return self.platform.peak_int8_tops * 1e12 * self.compute_efficiency

    @property
    def average_power_watts(self) -> float:
        return self.platform.tdp_watts * self.average_power_fraction

    def weight_bytes(self, params: float) -> float:
        return params * self.platform.quantization.weight_bits / 8.0

    def equalization_for(self, intermediate_bytes: float) -> EqualizationStrategy:
        """Choose the FIFO-sizing strategy the compiled design would use."""
        threshold = (self.conservative_threshold_fraction
                     * self.platform.onchip_memory_bytes)
        if intermediate_bytes > threshold:
            return EqualizationStrategy.CONSERVATIVE
        return EqualizationStrategy.NORMAL

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def _batched_block_time_s(self, config: ModelConfig,
                              batch: Sequence[Tuple[int, int]],
                              strategy: EqualizationStrategy) -> float:
        """Execution time of one block invocation shared by a batch of
        ``(tokens, kv_len)`` slices.  Weights stream once; KV traffic and
        compute scale per slice.  The single implementation behind both the
        single-request and batched engine-step costs.

        Each slice is priced inline: its KV bytes and its ``block_flops``
        count (from :func:`block_flops_coefficients`) are exact integers,
        each divided once by its rate and summed in batch order, so the
        result is bit-identical to calling ``block_flops`` per slice."""
        from repro.models.transformer import block_flops_coefficients

        weight_time = self.weight_bytes(config.layer_params()) / (
            self.weight_stream_gbs * 1e9)
        activation_bytes = self.platform.quantization.activation_bits / 8.0
        kv_row = 2 * config.kv_hidden_size       # K and V elements per row
        per_token, per_token_kv = block_flops_coefficients(config)
        hbm_bytes_per_s = self.weight_stream_gbs * 1e9
        ops_per_s = self.effective_ops_per_s
        kv_time = 0.0
        compute_time = 0.0
        for tokens, kv_len in batch:
            kv_time += kv_len * kv_row * activation_bytes / hbm_bytes_per_s
            compute_time += tokens * (per_token + kv_len * per_token_kv) \
                / ops_per_s
        steady = max(weight_time + kv_time, compute_time)
        slowdown = (self.conservative_slowdown
                    if strategy is EqualizationStrategy.CONSERVATIVE else 1.0)
        return steady * slowdown + self.per_layer_overhead_s

    def _head_time_s(self, config: ModelConfig, num_positions: int) -> float:
        """LM-head time: vocabulary weights stream once, ``num_positions``
        positions are projected."""
        params = config.vocab_size * config.hidden_size
        weight_time = self.weight_bytes(params) / (self.weight_stream_gbs * 1e9)
        compute_time = num_positions * 2.0 * config.hidden_size \
            * config.vocab_size / self.effective_ops_per_s
        return max(weight_time, compute_time)

    def block_time_s(self, config: ModelConfig, seq_len: int, kv_len: int,
                     strategy: EqualizationStrategy) -> float:
        """Execution time of one transformer-block invocation."""
        return self._batched_block_time_s(config, [(seq_len, kv_len)], strategy)

    def engine_step_time_s(self, config: ModelConfig,
                           batch: Sequence[Tuple[int, int]],
                           strategy: EqualizationStrategy,
                           emitting: Optional[int] = None) -> float:
        """Execution time of one engine step over a batch of request slices.

        ``batch`` holds one ``(tokens, kv_len)`` pair per request sharing the
        step: a decode slice contributes ``(1, kv_len)``, a prefill (or
        chunked-prefill) slice ``(chunk_len, kv_len)``.  ``emitting`` is how
        many of those slices produce an output token this step (a mid-prompt
        prefill chunk does not, so it skips the LM head); ``None`` means all
        of them.

        The fused block streams each layer's weights from HBM exactly once
        per invocation regardless of how many requests ride along, so the
        weight-streaming term — the dominant cost of single-token decoding —
        is paid once per layer while KV traffic and compute scale with the
        batch.  This amortisation is what iteration-level continuous batching
        exploits.  A singleton batch reduces exactly to
        :meth:`prefill_time_s` / :meth:`decode_step_time_s`.
        """
        if not batch:
            return 0.0
        block = self._batched_block_time_s(config, batch, strategy)
        num_emitting = len(batch) if emitting is None else emitting
        head = self._head_time_s(config, num_emitting) if num_emitting else 0.0
        return config.num_layers * block + head + self.per_pass_overhead_s

    def lm_head_time_s(self, config: ModelConfig) -> float:
        """LM-head (vocabulary projection) time for the one position a
        forward pass projects: the last prompt position during prefill, the
        single new position during decode."""
        return self._head_time_s(config, 1)

    # ------------------------------------------------------------------
    # Workload evaluation
    # ------------------------------------------------------------------
    def prefill_time_s(self, config: ModelConfig, prompt_len: int,
                       strategy: EqualizationStrategy) -> float:
        block = self.block_time_s(config, prompt_len, prompt_len, strategy)
        return (config.num_layers * block + self.lm_head_time_s(config)
                + self.per_pass_overhead_s)

    def decode_step_time_s(self, config: ModelConfig, kv_len: int,
                           strategy: EqualizationStrategy) -> float:
        block = self.block_time_s(config, 1, kv_len, strategy)
        return (config.num_layers * block + self.lm_head_time_s(config)
                + self.per_pass_overhead_s)

    def evaluate(self, config: ModelConfig, workload: Workload,
                 intermediate_bytes: Optional[float] = None) -> LatencyBreakdown:
        """Evaluate one workload on the StreamTensor accelerator.

        Args:
            config: Model configuration.
            workload: The [input:output] request.
            intermediate_bytes: Fused intermediate-result memory of the
                compiled design (from the Figure 10a report); decides the
                equalisation strategy.  ``None`` assumes the Normal strategy.
        """
        strategy = (self.equalization_for(intermediate_bytes)
                    if intermediate_bytes is not None
                    else EqualizationStrategy.NORMAL)
        ttft = self.prefill_time_s(config, workload.input_len, strategy)
        decode = 0.0
        for kv_len in workload.decode_kv_lengths():
            decode += self.decode_step_time_s(config, kv_len, strategy)
        total = ttft + decode
        energy = total * self.average_power_watts
        return LatencyBreakdown(
            platform=self.platform.name,
            model=config.name,
            workload=workload,
            ttft_s=ttft,
            decode_time_s=decode,
            energy_j=energy,
        )


# ----------------------------------------------------------------------
# GPU baselines
# ----------------------------------------------------------------------
@dataclass
class GpuPerformanceModel:
    """Roofline + launch-overhead model of GPU LLM inference.

    Attributes:
        platform: The GPU device.
        per_layer_overhead_s: Framework + kernel-launch overhead per
            transformer layer per forward pass (the dominant term for
            single-token decoding of small LLMs).
        per_pass_overhead_s: Per-forward-pass overhead (tokenisation,
            sampling, python glue).
    """

    platform: GpuPlatform
    per_layer_overhead_s: float = 0.25e-3
    per_pass_overhead_s: float = 1.0e-3

    def _bytes_per_element(self) -> float:
        return self.platform.quantization.weight_bits / 8.0

    def forward_time_s(self, config: ModelConfig, seq_len: int, kv_len: int) -> float:
        """Roofline time of one forward pass over ``seq_len`` positions."""
        from repro.models.transformer import model_flops

        flops = model_flops(config, seq_len, kv_len)
        weight_bytes = config.total_params() * self._bytes_per_element()
        kv_bytes = (2 * config.num_layers * kv_len * config.kv_hidden_size
                    * self._bytes_per_element())
        roofline = self.platform.op_time_seconds(flops, weight_bytes + kv_bytes,
                                                 num_kernels=0)
        overhead = (config.num_layers * self.per_layer_overhead_s
                    + self.per_pass_overhead_s)
        return roofline + overhead

    def compute_bound_fraction(self, config: ModelConfig, seq_len: int,
                               kv_len: int) -> float:
        from repro.models.transformer import model_flops

        flops = model_flops(config, seq_len, kv_len)
        weight_bytes = config.total_params() * self._bytes_per_element()
        compute_time = flops / (self.platform.effective_tops * 1e12)
        memory_time = weight_bytes / (self.platform.effective_bandwidth_gbs * 1e9)
        total = compute_time + memory_time
        return compute_time / total if total > 0 else 0.0

    def evaluate(self, config: ModelConfig, workload: Workload) -> LatencyBreakdown:
        ttft = self.forward_time_s(config, workload.input_len, workload.input_len)
        decode = 0.0
        for kv_len in workload.decode_kv_lengths():
            decode += self.forward_time_s(config, 1, kv_len)
        total = ttft + decode
        fraction = self.compute_bound_fraction(config, 1, workload.total_tokens)
        power = self.platform.average_power_watts(fraction)
        return LatencyBreakdown(
            platform=self.platform.name,
            model=config.name,
            workload=workload,
            ttft_s=ttft,
            decode_time_s=decode,
            energy_j=total * power,
        )
