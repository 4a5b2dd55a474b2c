"""Tests for the FPGA and GPU latency models."""

import pytest

from repro.eval.baselines import a100_model, rtx2080ti_model
from repro.eval.latency import FpgaPerformanceModel, GpuPerformanceModel
from repro.models.config import GPT2, LLAMA, QWEN
from repro.models.workload import Workload
from repro.resource.token_model import EqualizationStrategy


class TestFpgaModel:
    def test_latency_components(self):
        model = FpgaPerformanceModel()
        result = model.evaluate(GPT2, Workload(32, 32))
        assert result.ttft_s > 0
        assert result.decode_time_s > 0
        assert result.latency_s == pytest.approx(result.ttft_s + result.decode_time_s)
        assert result.energy_j > 0

    def test_ttft_scales_roughly_linearly_with_input(self):
        """Table 4 observes TTFT scaling linearly with input length."""
        model = FpgaPerformanceModel()
        short = model.evaluate(GPT2, Workload(32, 32)).ttft_s
        long = model.evaluate(GPT2, Workload(256, 32)).ttft_s
        assert long / short == pytest.approx(8.0, rel=0.25)

    def test_decode_speed_roughly_constant(self):
        model = FpgaPerformanceModel()
        speeds = [model.evaluate(GPT2, Workload(32, out)).decode_speed_tokens_per_s
                  for out in (32, 128, 256)]
        assert max(speeds) / min(speeds) < 1.3

    def test_decode_is_memory_bound(self):
        """Decode time tracks the weight-streaming bandwidth, not compute."""
        base = FpgaPerformanceModel()
        more_compute = FpgaPerformanceModel(compute_efficiency=0.5)
        workload = Workload(32, 64)
        assert more_compute.evaluate(GPT2, workload).decode_time_s \
            == pytest.approx(base.evaluate(GPT2, workload).decode_time_s, rel=0.05)

    def test_conservative_strategy_slows_down(self):
        model = FpgaPerformanceModel()
        threshold = model.conservative_threshold_fraction \
            * model.platform.onchip_memory_bytes
        normal = model.evaluate(LLAMA, Workload(32, 32),
                                intermediate_bytes=threshold * 0.5)
        conservative = model.evaluate(LLAMA, Workload(32, 32),
                                      intermediate_bytes=threshold * 2.0)
        assert conservative.latency_s > normal.latency_s

    def test_equalization_selection(self):
        model = FpgaPerformanceModel()
        budget = model.platform.onchip_memory_bytes
        assert model.equalization_for(budget * 0.01) is EqualizationStrategy.NORMAL
        assert model.equalization_for(budget * 0.5) \
            is EqualizationStrategy.CONSERVATIVE

    def test_larger_model_is_slower(self):
        model = FpgaPerformanceModel()
        assert model.evaluate(LLAMA, Workload(32, 32)).latency_s \
            > model.evaluate(QWEN, Workload(32, 32)).latency_s

    def test_tokens_per_joule_positive(self):
        result = FpgaPerformanceModel().evaluate(GPT2, Workload(32, 32))
        assert result.tokens_per_joule > 0


class TestGpuModel:
    def test_prefill_much_faster_than_fpga(self):
        gpu = a100_model().evaluate(GPT2, Workload(128, 32))
        fpga = FpgaPerformanceModel().evaluate(GPT2, Workload(128, 32))
        assert gpu.ttft_s < fpga.ttft_s / 3

    def test_decode_dominated_by_overhead(self):
        """Decoding small LLMs on a GPU is launch-overhead bound, so doubling
        the modelled bandwidth barely changes the decode time."""
        base = a100_model()
        faster = GpuPerformanceModel(platform=base.platform,
                                     per_layer_overhead_s=base.per_layer_overhead_s)
        faster.platform = base.platform
        workload = Workload(32, 64)
        result = base.evaluate(GPT2, workload)
        overhead = (GPT2.num_layers * base.per_layer_overhead_s
                    + base.per_pass_overhead_s) * (workload.output_len - 1)
        assert overhead > 0.5 * result.decode_time_s

    def test_a100_beats_2080ti(self):
        workload = Workload(64, 64)
        a100 = a100_model().evaluate(GPT2, workload)
        rtx = rtx2080ti_model().evaluate(GPT2, workload)
        assert a100.latency_s < rtx.latency_s

    def test_energy_uses_power_between_idle_and_tdp(self):
        result = a100_model().evaluate(GPT2, Workload(32, 32))
        power = result.energy_j / result.latency_s
        assert 0.5 * 300 <= power <= 300
