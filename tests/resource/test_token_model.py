"""Tests for the piecewise-linear token behaviour model (Section 5.3.1-5.3.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resource.token_model import (
    EqualizationStrategy,
    KernelTiming,
    equalize_timings,
    max_tokens_from_delay,
    simulate_max_tokens,
)


class TestKernelTiming:
    def test_latency_formula(self):
        timing = KernelTiming("k", initial_delay=3, pipeline_ii=2, total_tokens=5)
        assert timing.latency == 3 + 4 * 2

    def test_throughput(self):
        assert KernelTiming("k", 0, 4, 10).throughput == 0.25

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            KernelTiming("k", 0, 0, 5)
        with pytest.raises(ValueError):
            KernelTiming("k", -1, 1, 5)
        with pytest.raises(ValueError):
            KernelTiming("k", 0, 1, -5)

    def test_scaled_to_throughput_only_slows_down(self):
        timing = KernelTiming("k", 0, 2, 10)
        assert timing.scaled_to_throughput(0.25).pipeline_ii == 4
        assert timing.scaled_to_throughput(10.0).pipeline_ii == 2


class TestFigure8Example:
    """The worked example of Figure 8(a): source II=1 D=3, target II=2 D=1."""

    def test_max_tokens_is_three(self):
        source = KernelTiming("source", initial_delay=3, pipeline_ii=1, total_tokens=5)
        target = KernelTiming("target", initial_delay=1, pipeline_ii=2, total_tokens=5)
        # The target starts as soon as the first token arrives (delay = D_src).
        analytic = max_tokens_from_delay(source, target, delay=3)
        simulated = simulate_max_tokens(source, target, delay=3)
        assert analytic == 3
        # The analytic size is a safe upper bound on the observed occupancy.
        assert 2 <= simulated <= analytic


class TestMaxTokensEquations:
    def test_fast_source_equation1(self):
        source = KernelTiming("s", 0, 1, 100)
        target = KernelTiming("t", 0, 4, 100)
        analytic = max_tokens_from_delay(source, target, delay=0)
        simulated = simulate_max_tokens(source, target, delay=0)
        assert analytic == pytest.approx(simulated, abs=1)
        assert analytic >= simulated

    def test_slow_source_equation2(self):
        source = KernelTiming("s", 2, 4, 50)
        target = KernelTiming("t", 0, 1, 50)
        for delay in (2, 10, 30):
            assert max_tokens_from_delay(source, target, delay=delay) \
                == pytest.approx(simulate_max_tokens(source, target, delay=delay), abs=1)

    def test_max_tokens_monotonic_in_delay(self):
        source = KernelTiming("s", 2, 2, 64)
        target = KernelTiming("t", 0, 3, 64)
        values = [max_tokens_from_delay(source, target, d) for d in (2, 10, 50, 200)]
        assert values == sorted(values)

    def test_never_exceeds_total_tokens(self):
        source = KernelTiming("s", 0, 1, 16)
        target = KernelTiming("t", 0, 100, 16)
        assert max_tokens_from_delay(source, target, delay=1e6) <= 16

    def test_zero_tokens(self):
        source = KernelTiming("s", 0, 1, 0)
        target = KernelTiming("t", 0, 1, 0)
        assert max_tokens_from_delay(source, target, 0) == 0

    @given(
        d_src=st.integers(0, 20), ii_src=st.integers(1, 8),
        d_tgt=st.integers(0, 20), ii_tgt=st.integers(1, 8),
        tokens=st.integers(1, 40), extra_delay=st.integers(0, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_analytic_upper_bounds_simulation(self, d_src, ii_src, d_tgt, ii_tgt,
                                              tokens, extra_delay):
        """A FIFO sized by the analytic equations never overflows in the
        discrete-time reference simulation."""
        source = KernelTiming("s", d_src, ii_src, tokens)
        target = KernelTiming("t", d_tgt, ii_tgt, tokens)
        delay = d_src + extra_delay
        analytic = max_tokens_from_delay(source, target, delay)
        simulated = simulate_max_tokens(source, target, delay)
        assert analytic >= simulated


class TestEqualization:
    def make_timings(self):
        return [
            KernelTiming("fast", 0, 1, 32),
            KernelTiming("medium", 0, 2, 32),
            KernelTiming("slow", 0, 8, 32),
        ]

    def test_normal_strategy_keeps_timings(self):
        timings = self.make_timings()
        assert equalize_timings(timings, EqualizationStrategy.NORMAL) == timings

    def test_conservative_matches_slowest_throughput(self):
        equalized = equalize_timings(self.make_timings(),
                                     EqualizationStrategy.CONSERVATIVE)
        assert all(t.pipeline_ii == 8 for t in equalized)

    def test_conservative_reduces_fifo_requirements(self):
        """The Conservative strategy trades latency for smaller FIFOs."""
        fast = KernelTiming("fast", 0, 1, 64)
        slow = KernelTiming("slow", 0, 8, 64)
        normal_depth = max_tokens_from_delay(fast, slow, delay=0)
        eq_fast, eq_slow = equalize_timings([fast, slow],
                                            EqualizationStrategy.CONSERVATIVE)
        conservative_depth = max_tokens_from_delay(eq_fast, eq_slow, delay=0)
        assert conservative_depth <= normal_depth
