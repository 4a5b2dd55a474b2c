"""Host-runtime inference session.

The generated accelerator executes one transformer block; everything else —
parameter packing, per-layer invocation with the right weight pointers, KV
cache management, sampling loop — is the host runtime's job (Section 2 and
the ``Runtime Codegen`` stage of Figure 4).  :class:`InferenceSession`
simulates that runtime against the analytical performance model: it walks an
autoregressive generation request layer by layer and token by token,
accounting for prefill, per-step decode time, KV-cache growth and the
one-time parameter packing cost, and returns a per-token timeline.

This is the piece a downstream user would call to ask "what would serving
this model on the generated accelerator look like?" without owning an FPGA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional

from repro.compiler.pipeline import CompilationResult
from repro.eval.latency import FpgaPerformanceModel, StepPricer, StepTotals
from repro.models.config import ModelConfig
from repro.models.workload import Workload
from repro.platform.hls_profiler import parameter_packing_seconds
from repro.resource.token_model import EqualizationStrategy


@dataclass(frozen=True)
class StepRecord:
    """Timing of one generation step."""

    index: int
    kind: str          # "prefill" or "decode"
    tokens: int        # tokens processed in this step
    kv_len: int        # KV-cache length visible to attention
    seconds: float
    kernel_invocations: int


class StepWork(NamedTuple):
    """One request's contribution to a single engine step.

    A decode slice is ``(kind="decode", tokens=1)``; a prefill slice covers
    ``tokens`` prompt positions (possibly a chunk of a longer prompt when a
    scheduler enforces a per-step token budget).  ``kv_len`` is the KV-cache
    length attention sees once this slice completes.  ``emits`` is whether
    the slice produces an output token — true for decode and for the final
    prefill chunk, false for mid-prompt chunks, which therefore skip the
    LM head in the step cost.

    Only prefill chunks, admissions and :meth:`InferenceSession.generate`
    build one: a resident decode's slice is always ``(1, kv_tokens)``, so
    the serving scheduler tracks such requests by cursor alone.
    """

    kind: str          # "prefill" or "decode"
    tokens: int
    kv_len: int
    emits: bool = True

    @property
    def kv_tokens_after(self) -> int:
        """KV rows resident once this slice (and its emitted token) land.

        A decode slice attends over ``kv_len`` rows and appends the row of
        the token it emits; an emitting (final) prefill chunk likewise adds
        the first output token's row.  Mid-prompt chunks only hold the
        positions prefilled so far.  Over a request's lifetime this peaks at
        ``workload.total_tokens`` — the figure KV capacity must cover.
        """
        return self.kv_len + (1 if self.emits else 0)


# Builds a StepWork from a full (kind, tokens, kv_len, emits) tuple in one C
# call, without the Python-level ``__new__`` a NamedTuple's constructor
# runs: the serving scheduler asks for a prefill slice per admission.
_new_tuple = tuple.__new__


class ActiveRequest:
    """Step-granular cursor over one generation request.

    Created by :meth:`InferenceSession.start_request`.  A scheduler asks
    :meth:`next_work` what the request needs next, folds that slice into an
    engine step (possibly alongside slices of other requests), and calls
    :meth:`record` with the step's wall-clock duration.  The cursor holds
    two counters — prompt positions resident and tokens generated — and no
    per-step history, so a serving run's memory grows with its requests,
    not its tokens.  :meth:`InferenceSession.generate` keeps the
    :class:`StepRecord` timeline of a single request itself.

    The counters are plain attributes: a serving engine advances a resident
    decode by bumping ``tokens_generated`` directly, since its slice never
    varies.
    """

    __slots__ = ("workload", "input_len", "output_len", "prefilled_tokens",
                 "tokens_generated", "prefix_cached_tokens")

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.input_len = workload.input_len
        self.output_len = workload.output_len
        # Prompt positions whose KV rows are resident (computed by this
        # request or served from a shared prefix cache).
        self.prefilled_tokens = 0
        self.tokens_generated = 0
        self.prefix_cached_tokens = 0

    @property
    def kv_tokens(self) -> int:
        """KV rows this request currently holds (prompt prefilled so far
        plus every generated token)."""
        return self.prefilled_tokens + self.tokens_generated

    @property
    def in_prefill(self) -> bool:
        return self.prefilled_tokens < self.input_len

    @property
    def finished(self) -> bool:
        return self.tokens_generated >= self.output_len

    def skip_prefix(self, tokens: int) -> int:
        """Mark the first ``tokens`` prompt positions as already resident.

        The prefix-caching path calls this right after admission, before any
        work is recorded: the skipped positions' KV rows live in shared
        cache blocks, so prefill starts past them (the host runtime only
        streams the uncached suffix through the accelerator).  At least the
        final prompt position is always computed — its hidden state feeds
        the first output token — so the skip is capped at ``input_len - 1``.
        Returns the positions actually skipped.
        """
        if self.prefilled_tokens or self.tokens_generated:
            raise RuntimeError(
                f"request {self.workload.label} already started; a prefix "
                "skip is only valid before the first recorded slice")
        if tokens < 0:
            raise ValueError("cannot skip a negative prefix")
        skipped = min(tokens, self.input_len - 1)
        self.prefilled_tokens = skipped
        self.prefix_cached_tokens = skipped
        return skipped

    def assume_resident(self, tokens: int) -> int:
        """Mark the first ``tokens`` prompt positions as already resident
        without computing them — KV rows that arrived from *outside* this
        device (a disaggregated prefill replica's hand-off, imported over
        the interconnect) rather than from a local cache.

        Unlike :meth:`skip_prefix` the whole prompt may be covered: the
        sending replica already computed the final prompt position's hidden
        state and emitted the first token, so a fully-resident cursor goes
        straight to decode.  Only valid on a fresh cursor, before any slice
        is recorded.  Returns the positions marked resident.
        """
        if self.prefilled_tokens or self.tokens_generated:
            raise RuntimeError(
                f"request {self.workload.label} already started; imported "
                "KV is only valid before the first recorded slice")
        if tokens < 0:
            raise ValueError("cannot import a negative KV prefix")
        resident = min(tokens, self.input_len)
        self.prefilled_tokens = resident
        return resident

    def next_work(self, token_budget: Optional[int] = None,
                  assume_prefilled: Optional[int] = None) -> StepWork:
        """The slice this request needs in the next engine step.

        Args:
            token_budget: Optional cap on prompt tokens for this step; a
                prompt longer than the budget is prefilled in chunks across
                several steps (decode always needs exactly one token).
            assume_prefilled: Plan the slice as if this many prompt
                positions were already resident (capped at ``input_len - 1``,
                like :meth:`skip_prefix`).  A pure what-if for schedulers
                sizing an admission slice against prefix-cache reuse —
                nothing is mutated; the engine applies the actual skip via
                :meth:`skip_prefix` when it admits the request.
        """
        if self.tokens_generated >= self.output_len:
            raise RuntimeError(
                f"request {self.workload.label} already finished")
        input_len = self.input_len
        prefilled = self.prefilled_tokens
        if assume_prefilled is not None:
            prefilled = max(prefilled, min(assume_prefilled, input_len - 1))
        if prefilled < input_len:
            remaining = input_len - prefilled
            chunk = remaining if token_budget is None \
                else max(1, min(remaining, token_budget))
            return _new_tuple(StepWork, ("prefill", chunk, prefilled + chunk,
                                         chunk == remaining))
        return StepWork("decode", 1, input_len + self.tokens_generated)

    def record(self, work: StepWork, seconds: float) -> int:
        """Account one completed slice; returns tokens emitted (0 or 1).

        The first output token is emitted when the last prefill chunk
        completes; every decode slice emits one more.  ``seconds`` is the
        step's duration; the cursor does not store it (callers that want a
        timeline, like :meth:`InferenceSession.generate`, keep their own).
        Every slice advances a counter by at least one position, so a
        recorded cursor is never mistaken for a fresh one.
        """
        if work.kind == "prefill":
            self.prefilled_tokens += work.tokens
            if self.prefilled_tokens >= self.input_len:  # == not in_prefill
                self.tokens_generated = 1
                return 1
            return 0
        self.tokens_generated += 1
        return 1


@dataclass
class GenerationResult:
    """Outcome of one simulated generation request."""

    workload: Workload
    steps: List[StepRecord] = field(default_factory=list)
    packing_seconds: float = 0.0
    kv_cache_bytes: float = 0.0

    @property
    def ttft_s(self) -> float:
        return self.steps[0].seconds if self.steps else 0.0

    @property
    def total_seconds(self) -> float:
        return sum(step.seconds for step in self.steps)

    @property
    def decode_tokens_per_second(self) -> float:
        decode_steps = [s for s in self.steps if s.kind == "decode"]
        if not decode_steps:
            return 0.0
        return len(decode_steps) / sum(s.seconds for s in decode_steps)

    @property
    def total_kernel_invocations(self) -> int:
        return sum(step.kernel_invocations for step in self.steps)


class InferenceSession:
    """Simulates serving an LLM on a compiled StreamTensor accelerator.

    Args:
        config: The model configuration.
        compiled: The compilation result of one transformer block; its fused
            intermediate-memory footprint decides the FIFO-sizing strategy
            (the Llama effect of Figure 9).  ``None`` assumes the Normal
            strategy.
        performance_model: Analytical accelerator performance model.
        max_seq_len: Shape hint bounding the KV cache (Section 5.3.5's
            dynamic-tensor-shape handling); requests beyond it are rejected.
    """

    def __init__(self, config: ModelConfig,
                 compiled: Optional[CompilationResult] = None,
                 performance_model: Optional[FpgaPerformanceModel] = None,
                 max_seq_len: Optional[int] = None) -> None:
        self.config = config
        self.compiled = compiled
        self.model = performance_model or FpgaPerformanceModel()
        self.max_seq_len = max_seq_len or config.max_seq_len
        self._parameters_packed = False

        if compiled is not None:
            intermediate = compiled.report.intermediate_bytes_fused
            self.strategy = self.model.equalization_for(intermediate)
        else:
            self.strategy = EqualizationStrategy.NORMAL

    @property
    def strategy(self) -> EqualizationStrategy:
        """The FIFO-sizing strategy the step cost assumes."""
        return self._strategy

    @strategy.setter
    def strategy(self, strategy: EqualizationStrategy) -> None:
        self._strategy = strategy
        self._pricer = self.model.step_pricer(self.config, strategy)

    @property
    def step_pricer(self) -> StepPricer:
        """The pricer :meth:`execute_step` charges every step with."""
        return self._pricer

    @property
    def kv_bytes_per_token(self) -> float:
        """Device bytes one KV row (all layers, K and V) occupies.

        The host runtime owns KV allocation (Section 2); this is the per-
        token footprint a capacity-aware scheduler budgets against, at the
        platform's activation quantisation.
        """
        bytes_per_element = self.model.platform.quantization.activation_bits / 8.0
        return self.config.kv_cache_bytes_per_token(bytes_per_element)

    # ------------------------------------------------------------------
    # Parameter packing (one-time, offline for static tensors)
    # ------------------------------------------------------------------
    def pack_parameters(self) -> float:
        """Pack model parameters into the tiled+widened device layout.

        Returns the packing time in seconds; subsequent calls are free (the
        packed binaries are reused), mirroring Section 4.2's static-tensor
        fusion of pack/widen.
        """
        if self._parameters_packed:
            return 0.0
        self._parameters_packed = True
        weight_bytes = (self.config.total_params()
                        * self.model.platform.quantization.weight_bits / 8.0)
        return parameter_packing_seconds(weight_bytes)

    def reset(self) -> None:
        """Forget the packed parameter binaries.

        The next :meth:`pack_parameters` (or the next :meth:`generate`) pays
        the one-time packing cost again — use this to model a cold start,
        e.g. after rebuilding the accelerator for a different design point.
        """
        self._parameters_packed = False

    # ------------------------------------------------------------------
    # Step-granular API (drives continuous batching in repro.serving)
    # ------------------------------------------------------------------
    def start_request(self, workload: Workload) -> ActiveRequest:
        """Open a step-granular cursor for one request.

        Raises:
            ValueError: if the request exceeds the session's maximum sequence
                length (the static shape hint the accelerator was built for).
        """
        # workload.total_tokens without the property call (once per
        # admitted request).
        if workload.input_len + workload.output_len > self.max_seq_len:
            raise ValueError(
                f"request needs {workload.total_tokens} positions but the "
                f"accelerator was built for max_seq_len={self.max_seq_len}"
            )
        return ActiveRequest(workload)

    def step_totals(self, works: Iterable[StepWork],
                    decodes: Iterable[ActiveRequest] = ()) -> StepTotals:
        """Reduce explicit slices, plus cursors each taking its next decode
        slice ``(1, kv_tokens)``, to the sums :meth:`execute_step` prices.

        Raises:
            ValueError: if a slice attends over more positions than the
                accelerator was built for (``max_seq_len``).
        """
        works = list(works)
        decode_kv = [active.kv_tokens for active in decodes]
        pairs = [(work.tokens, work.kv_len) for work in works]
        pairs += [(1, kv_len) for kv_len in decode_kv]
        kv_len = max((kv for _, kv in pairs), default=0)
        if kv_len > self.max_seq_len:
            raise ValueError(
                f"step needs kv_len={kv_len} but the accelerator "
                f"was built for max_seq_len={self.max_seq_len}"
            )
        return StepTotals.of(
            pairs, sum(work.emits for work in works) + len(decode_kv))

    def execute_step(self, totals: StepTotals) -> float:
        """Simulate one engine step over a batch summarised by ``totals``.

        The fused block streams each layer's weights once per invocation no
        matter how many requests share the step, so batching amortises the
        weight-streaming cost that dominates single-token decoding; the
        step's cost is a closed form in the batch's sums (see
        :class:`~repro.eval.latency.StepPricer`).  Returns the step's
        wall-clock seconds; an empty batch is free.
        """
        return self._pricer.step_time_s(totals)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self, workload: Workload) -> GenerationResult:
        """Simulate one [input:output] request, one step at a time.

        ``packing_seconds`` of the returned result is the one-time parameter
        packing cost, charged to whichever request triggers it: it is
        non-zero only for the first request after the session is created (or
        :meth:`reset`), and exactly 0.0 for every later request because the
        packed binaries are reused.

        Raises:
            ValueError: if the request exceeds the session's maximum sequence
                length (the static shape hint the accelerator was built for).
        """
        active = self.start_request(workload)
        result = GenerationResult(workload=workload)
        result.packing_seconds = self.pack_parameters()

        # Whole-prompt prefill, then one decode step per generated token
        # against the growing KV cache — each a singleton engine step.
        num_layers = self.config.num_layers
        while not active.finished:
            work = active.next_work()
            seconds = self.execute_step(self.step_totals([work]))
            active.record(work, seconds)
            result.steps.append(StepRecord(
                index=len(result.steps), kind=work.kind, tokens=work.tokens,
                kv_len=work.kv_len, seconds=seconds,
                kernel_invocations=num_layers))

        result.kv_cache_bytes = workload.total_tokens * self.kv_bytes_per_token
        return result
