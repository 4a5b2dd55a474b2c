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
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

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
class StepTotals(NamedTuple):
    """The sums one engine step's cost depends on.

    A block invocation streams its weights once however many slices share
    it, KV traffic grows with each slice's ``kv_len``, and ``block_flops``
    is affine in ``tokens`` and ``tokens * kv_len``.  A step's cost is
    therefore a closed form in these totals; no slice is priced on its own.
    """

    slices: int = 0
    tokens: int = 0        # sum of tokens
    kv_len: int = 0        # sum of kv_len
    token_kv: int = 0      # sum of tokens * kv_len
    emitting: int = 0      # slices that produce an output token

    @classmethod
    def of(cls, batch: Iterable[Tuple[int, int]],
           emitting: Optional[int] = None) -> "StepTotals":
        """Reduce ``(tokens, kv_len)`` pairs; ``emitting=None`` means
        every slice emits."""
        slices = tokens = kv_total = token_kv = 0
        for slice_tokens, kv_len in batch:
            slices += 1
            tokens += slice_tokens
            kv_total += kv_len
            token_kv += slice_tokens * kv_len
        return cls(slices, tokens, kv_total, token_kv,
                   slices if emitting is None else emitting)


@dataclass(frozen=True)
class StepPricer:
    """Engine-step cost of one model under one FIFO-sizing strategy.

    Built by :meth:`FpgaPerformanceModel.step_pricer`, which computes the
    per-config constants once.  :meth:`block_time_s` is the model's one
    block-time implementation.  Its FLOP count is an exact integer, divided
    once by the compute rate, so a one-slice step prices exactly as the
    per-slice form does.
    """

    num_layers: int
    weight_time_s: float
    kv_row: int
    activation_bytes: float
    hbm_bytes_per_s: float
    per_token: int
    per_token_kv: int
    ops_per_s: float
    slowdown: float
    per_layer_overhead_s: float
    head_weight_time_s: float
    head_flops_per_position: float
    per_pass_overhead_s: float

    def block_time_s(self, tokens: int, kv_len: int, token_kv: int) -> float:
        """One block invocation shared by slices whose sums are ``tokens``,
        ``kv_len`` and ``token_kv``: weights stream once, KV traffic and
        compute scale with the sums."""
        kv_time = kv_len * self.kv_row * self.activation_bytes \
            / self.hbm_bytes_per_s
        compute_time = (tokens * self.per_token
                        + token_kv * self.per_token_kv) / self.ops_per_s
        steady = max(self.weight_time_s + kv_time, compute_time)
        return steady * self.slowdown + self.per_layer_overhead_s

    def head_time_s(self, num_positions: int) -> float:
        """LM-head time: vocabulary weights stream once, ``num_positions``
        positions are projected."""
        return max(self.head_weight_time_s,
                   num_positions * self.head_flops_per_position
                   / self.ops_per_s)

    def step_time_s(self, totals: StepTotals) -> float:
        """Execution time of one engine step; an empty step is free.

        The fused block streams each layer's weights from HBM exactly once
        per invocation regardless of how many requests ride along, so the
        weight-streaming term (the dominant cost of single-token decoding)
        is paid once per layer while KV traffic and compute scale with the
        batch.  Iteration-level continuous batching exploits this
        amortisation.  Mid-prompt prefill chunks do not emit, so only
        ``totals.emitting`` positions pay the LM head.
        """
        if not totals.slices:
            return 0.0
        block = self.block_time_s(totals.tokens, totals.kv_len,
                                  totals.token_kv)
        head = self.head_time_s(totals.emitting) if totals.emitting else 0.0
        return self.num_layers * block + head + self.per_pass_overhead_s


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

    def step_pricer(self, config: ModelConfig,
                    strategy: EqualizationStrategy) -> "StepPricer":
        """The engine-step cost of ``config`` under ``strategy``, with every
        per-config constant computed here, once (callers pricing many steps
        keep the pricer)."""
        from repro.models.transformer import block_flops_coefficients

        hbm_bytes_per_s = self.weight_stream_gbs * 1e9
        per_token, per_token_kv = block_flops_coefficients(config)
        return StepPricer(
            num_layers=config.num_layers,
            weight_time_s=self.weight_bytes(config.layer_params())
            / hbm_bytes_per_s,
            kv_row=2 * config.kv_hidden_size,   # K and V elements per row
            activation_bytes=self.platform.quantization.activation_bits / 8.0,
            hbm_bytes_per_s=hbm_bytes_per_s,
            per_token=per_token,
            per_token_kv=per_token_kv,
            ops_per_s=self.effective_ops_per_s,
            slowdown=self.conservative_slowdown
            if strategy is EqualizationStrategy.CONSERVATIVE else 1.0,
            per_layer_overhead_s=self.per_layer_overhead_s,
            head_weight_time_s=self.weight_bytes(
                config.vocab_size * config.hidden_size) / hbm_bytes_per_s,
            head_flops_per_position=2.0 * config.hidden_size
            * config.vocab_size,
            per_pass_overhead_s=self.per_pass_overhead_s,
        )

    def block_time_s(self, config: ModelConfig, seq_len: int, kv_len: int,
                     strategy: EqualizationStrategy) -> float:
        """Execution time of one transformer-block invocation."""
        return self.step_pricer(config, strategy).block_time_s(
            seq_len, kv_len, seq_len * kv_len)

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
        of them.  The pairs are reduced to :class:`StepTotals` and priced by
        :meth:`StepPricer.step_time_s`.  A singleton batch reduces exactly
        to :meth:`prefill_time_s` / :meth:`decode_step_time_s`.
        """
        return self.step_pricer(config, strategy).step_time_s(
            StepTotals.of(batch, emitting))

    def lm_head_time_s(self, config: ModelConfig) -> float:
        """LM-head (vocabulary projection) time for the one position a
        forward pass projects: the last prompt position during prefill, the
        single new position during decode."""
        return self.step_pricer(config, EqualizationStrategy.NORMAL
                                ).head_time_s(1)

    # ------------------------------------------------------------------
    # Workload evaluation
    # ------------------------------------------------------------------
    def prefill_time_s(self, config: ModelConfig, prompt_len: int,
                       strategy: EqualizationStrategy) -> float:
        return self.engine_step_time_s(config, [(prompt_len, prompt_len)],
                                       strategy)

    def decode_step_time_s(self, config: ModelConfig, kv_len: int,
                           strategy: EqualizationStrategy) -> float:
        return self.engine_step_time_s(config, [(1, kv_len)], strategy)

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
        pricer = self.step_pricer(config, strategy)
        prompt = workload.input_len
        ttft = pricer.step_time_s(StepTotals.of([(prompt, prompt)]))
        decode = 0.0
        for kv_len in workload.decode_kv_lengths():
            decode += pricer.step_time_s(StepTotals.of([(1, kv_len)]))
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
