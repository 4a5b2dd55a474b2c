"""Tests for published baselines and the energy comparison helpers."""

import pytest

from repro.eval.baselines import (
    ALLO_GPT2_RESULTS,
    DFX_GPT2_RESULTS,
    published_baseline,
)
from repro.eval.energy import best_ratio, compare_energy, geometric_mean_ratio
from repro.eval.latency import FpgaPerformanceModel
from repro.eval.baselines import a100_model
from repro.models.config import QWEN
from repro.models.workload import Workload


class TestPublishedBaselines:
    def test_allo_table4_row(self):
        result = published_baseline("allo", Workload(32, 32))
        assert result.latency_ms == 238.32
        assert result.ttft_ms == 81.50
        assert result.speed_tokens_per_s == 204.05

    def test_dfx_table4_row(self):
        result = published_baseline("dfx", Workload(256, 256))
        assert result.latency_ms == 2800.00
        assert result.ttft_ms == 1417.60

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            published_baseline("vllm", Workload(32, 32))

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            published_baseline("allo", Workload(512, 512))

    def test_all_four_workloads_present(self):
        assert len(ALLO_GPT2_RESULTS) == 4
        assert len(DFX_GPT2_RESULTS) == 4


class TestEnergyComparison:
    def test_compare_energy_ratio(self):
        ours = FpgaPerformanceModel().evaluate(QWEN, Workload(32, 32))
        theirs = a100_model().evaluate(QWEN, Workload(32, 32))
        comparison = compare_energy(ours, theirs)
        assert comparison.ratio == pytest.approx(
            ours.tokens_per_joule / theirs.tokens_per_joule)
        assert comparison.baseline_name == "NVIDIA A100"

    def test_workload_mismatch_rejected(self):
        ours = FpgaPerformanceModel().evaluate(QWEN, Workload(32, 32))
        theirs = a100_model().evaluate(QWEN, Workload(64, 32))
        with pytest.raises(ValueError):
            compare_energy(ours, theirs)

    def test_geometric_mean_and_best(self):
        fpga = FpgaPerformanceModel()
        gpu = a100_model()
        comparisons = [
            compare_energy(fpga.evaluate(QWEN, w), gpu.evaluate(QWEN, w))
            for w in (Workload(32, 32), Workload(64, 64))
        ]
        geo = geometric_mean_ratio(comparisons)
        best = best_ratio(comparisons)
        assert best >= geo > 0
        assert geometric_mean_ratio([]) == 1.0
        assert best_ratio([]) == 1.0
