"""Tests for the batched step cost model and the sequential baseline."""

import math
import random

import pytest

from repro.eval.latency import FpgaPerformanceModel, StepTotals
from repro.eval.serving import run_sequential_baseline
from repro.models.config import GPT2, LLAMA, MODEL_CONFIGS
from repro.models.transformer import block_flops, block_flops_coefficients
from repro.models.workload import Workload
from repro.resource.token_model import EqualizationStrategy
from repro.runtime.session import InferenceSession, StepWork
from repro.serving.workload_gen import burst_trace, trace_from_specs


def step_time_s(model, config, batch, strategy, emitting=None):
    """One engine step over ``(tokens, kv_len)`` slices, ``emitting`` of
    which produce a token (all of them when ``None``)."""
    return model.step_pricer(config, strategy).step_time_s(
        StepTotals.of(batch, emitting))


class TestEngineStepTime:
    def test_empty_batch_is_free(self):
        model = FpgaPerformanceModel()
        assert step_time_s(model, GPT2, [],
                           EqualizationStrategy.NORMAL) == 0.0

    def test_batch_is_sublinear_in_size(self):
        model = FpgaPerformanceModel()
        single = step_time_s(model, GPT2, [(1, 64)],
                             EqualizationStrategy.NORMAL)
        batch8 = step_time_s(model, GPT2, [(1, 64)] * 8,
                             EqualizationStrategy.NORMAL)
        assert batch8 < 8 * single
        assert batch8 >= single

    def test_batch_time_monotonic_in_members(self):
        model = FpgaPerformanceModel()
        small = step_time_s(model, GPT2, [(1, 64)] * 2,
                            EqualizationStrategy.NORMAL)
        large = step_time_s(model, GPT2, [(1, 64)] * 4,
                            EqualizationStrategy.NORMAL)
        assert large >= small

    def test_conservative_strategy_dilates_step(self):
        model = FpgaPerformanceModel()
        batch = [(1, 64)] * 4
        normal = step_time_s(model, LLAMA, batch, EqualizationStrategy.NORMAL)
        conservative = step_time_s(model, LLAMA, batch,
                                   EqualizationStrategy.CONSERVATIVE)
        assert conservative > normal

    def test_mid_prefill_chunks_skip_the_lm_head(self):
        """A step of non-emitting chunks is cheaper than an emitting one;
        chunked prefill must not pay the vocabulary projection per chunk."""
        model = FpgaPerformanceModel()
        batch = [(64, 64)]
        silent = step_time_s(model, GPT2, batch, EqualizationStrategy.NORMAL,
                             emitting=0)
        emitting = step_time_s(model, GPT2, batch, EqualizationStrategy.NORMAL)
        assert silent < emitting
        assert emitting - silent == pytest.approx(
            model.step_pricer(GPT2, EqualizationStrategy.NORMAL).head_time_s(1))


def per_slice_block_time(model, config, batch, strategy):
    """Reference step block cost: ``block_flops`` called once per slice,
    each slice's KV and compute time summed in batch order."""
    hbm_bytes_per_s = model.weight_stream_gbs * 1e9
    weight_time = model.weight_bytes(config.layer_params()) / hbm_bytes_per_s
    activation_bytes = model.platform.quantization.activation_bits / 8.0
    kv_time = 0.0
    compute_time = 0.0
    for tokens, kv_len in batch:
        kv_time += 2 * kv_len * config.kv_hidden_size * activation_bytes \
            / hbm_bytes_per_s
        compute_time += block_flops(config, tokens, kv_len) \
            / model.effective_ops_per_s
    slowdown = model.conservative_slowdown \
        if strategy is EqualizationStrategy.CONSERVATIVE else 1.0
    return max(weight_time + kv_time, compute_time) * slowdown \
        + model.per_layer_overhead_s


def per_slice_step_time(model, config, batch, emits, strategy):
    """Reference engine-step cost priced slice by slice: the oracle the
    closed form over step totals must match."""
    if not batch:
        return 0.0
    block = per_slice_block_time(model, config, batch, strategy)
    emitting = sum(emits)
    head = 0.0
    if emitting:
        head_weight = model.weight_bytes(config.vocab_size
                                         * config.hidden_size) \
            / (model.weight_stream_gbs * 1e9)
        head = max(head_weight, emitting * 2.0 * config.hidden_size
                   * config.vocab_size / model.effective_ops_per_s)
    return config.num_layers * block + head + model.per_pass_overhead_s


def random_step(rng, top):
    """A seeded step: ``(tokens, kv_len)`` slices and their emit flags,
    mixing decodes with emitting and mid-prompt prefill chunks."""
    batch, emits = [], []
    for _ in range(rng.randint(1, 64)):
        if rng.random() < 0.7:
            kv_len = rng.randint(1, top - 1)
            batch.append((1, kv_len))
            emits.append(True)
        else:
            tokens = rng.randint(1, top)
            batch.append((tokens, rng.randint(tokens, top)))
            emits.append(rng.random() < 0.5)
    return batch, emits


class TestInlineSlicePricing:
    """Slices are priced with exact integer FLOP counts; a one-slice step
    must equal the per-slice ``block_flops`` form bit for bit, so the
    single-request latencies (``evaluate``, ``generate``) never move."""

    @pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
    def test_coefficients_reproduce_block_flops_exactly(self, name):
        config = MODEL_CONFIGS[name]
        per_token, per_token_kv = block_flops_coefficients(config)
        top = config.max_seq_len
        for tokens in (1, 2, 7, 128, top - 1, top):
            for kv_len in (0, 1, 33, 512, top - 1, top):
                assert float(tokens * per_token
                             + tokens * kv_len * per_token_kv) \
                    == block_flops(config, tokens, kv_len)

    @pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
    @pytest.mark.parametrize("strategy", list(EqualizationStrategy))
    def test_one_slice_cost_bit_identical_to_per_slice_form(self, name,
                                                            strategy):
        config = MODEL_CONFIGS[name]
        model = FpgaPerformanceModel()
        rng = random.Random(name)
        top = config.max_seq_len
        slices = [(top, top), (1, 1), (1, top - 1)]
        for _ in range(50):
            tokens = rng.choice((1, rng.randint(1, top)))
            slices.append((tokens, rng.randint(tokens, top)))
        for tokens, kv_len in slices:
            assert model.block_time_s(config, tokens, kv_len, strategy) \
                == per_slice_block_time(model, config, [(tokens, kv_len)],
                                        strategy)
            assert step_time_s(model, config, [(tokens, kv_len)], strategy) \
                == per_slice_step_time(model, config, [(tokens, kv_len)],
                                       [True], strategy)


class TestClosedFormStepCost:
    """A step is priced in closed form from its totals (sum of tokens,
    kv_len, tokens * kv_len, and the emitting count).  It may differ from
    pricing slice by slice only in float summation order."""

    @pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
    @pytest.mark.parametrize("strategy", list(EqualizationStrategy))
    def test_closed_form_matches_per_slice_oracle(self, name, strategy):
        config = MODEL_CONFIGS[name]
        model = FpgaPerformanceModel()
        pricer = model.step_pricer(config, strategy)
        rng = random.Random(f"{name}-{strategy.name}")
        top = config.max_seq_len
        steps = [([], []),                                  # empty
                 ([(top, top)], [True]),
                 ([(1, 1)] * 64, [True] * 64),
                 ([(64, 64), (32, 96)], [False, False])]    # non-emitting
        for _ in range(200):
            steps.append(random_step(rng, top))
        for batch, emits in steps:
            expected = per_slice_step_time(model, config, batch, emits,
                                           strategy)
            priced = pricer.step_time_s(StepTotals.of(batch, sum(emits)))
            assert math.isclose(priced, expected, rel_tol=1e-12,
                                abs_tol=0.0), (batch, emits)

    def test_session_totals_match_plan_slices(self):
        """Decode cursors reduce to ``(1, kv_tokens)`` emitting slices."""
        session = InferenceSession(GPT2)
        resident = session.start_request(Workload(40, 8))
        resident.assume_resident(40)
        resident.tokens_generated = 3
        chunk = StepWork("prefill", 16, 48, emits=False)
        assert session.step_totals([chunk], [resident]) \
            == StepTotals.of([(16, 48), (1, 43)], emitting=1)


class TestSequentialBaseline:
    def test_burst_trace_matches_throughput_sweep_totals(self):
        trace = burst_trace([Workload(16, 8), Workload(32, 16)])
        baseline = run_sequential_baseline(GPT2, trace)
        assert baseline.num_requests == 2
        assert baseline.total_output_tokens == 24
        # All requests arrive at once: makespan is pure busy time.
        assert baseline.makespan_s == pytest.approx(baseline.busy_s)
        assert baseline.tokens_per_s == pytest.approx(24 / baseline.busy_s)

    def test_arrival_gaps_counted_in_makespan(self):
        trace = trace_from_specs([(0.0, "[16:8]"), (100.0, "[16:8]")])
        baseline = run_sequential_baseline(GPT2, trace)
        assert baseline.makespan_s > 100.0
        assert baseline.busy_s < 10.0
        assert baseline.tokens_per_s < baseline.total_output_tokens / baseline.busy_s

    def test_oversized_requests_skipped(self):
        trace = trace_from_specs([(0.0, "[16:8]"), (0.1, "[2000:64]")])
        baseline = run_sequential_baseline(GPT2, trace, max_seq_len=128)
        assert baseline.num_requests == 1
        assert baseline.total_output_tokens == 8

    def test_empty_trace(self):
        baseline = run_sequential_baseline(GPT2, [])
        assert baseline.tokens_per_s == 0.0

    def test_cold_start_charges_packing_symmetrically(self):
        """With cold_start the baseline pays the packing delay too, so the
        engine/baseline comparison stays apples-to-apples."""
        trace = burst_trace([Workload(16, 8)])
        warm = run_sequential_baseline(GPT2, trace)
        cold = run_sequential_baseline(GPT2, trace, cold_start=True)
        assert cold.makespan_s > warm.makespan_s + 1.0
        assert cold.busy_s == pytest.approx(warm.busy_s)
