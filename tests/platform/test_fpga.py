"""Tests for the FPGA platform models (Table 6)."""

import pytest

from repro.platform.fpga import (
    AMD_U280,
    AMD_U280_DFX,
    AMD_U55C,
    FP16,
    FPGA_PLATFORMS,
    W4A8,
)
from repro.resource.memory_alloc import MemoryKind


class TestTable6Values:
    def test_u55c_matches_table6(self):
        assert AMD_U55C.frequency_mhz == 250.0
        assert AMD_U55C.peak_int8_tops == 24.5
        assert AMD_U55C.hbm_bandwidth_gbs == 460.0
        assert AMD_U55C.hbm_capacity_gb == 16.0
        assert AMD_U55C.onchip_memory_mb == 41.0
        assert AMD_U55C.tdp_watts == 150.0
        assert AMD_U55C.process_node_nm == 16
        assert AMD_U55C.quantization == W4A8

    def test_u280_allo_matches_table6(self):
        assert AMD_U280.tdp_watts == 225.0
        assert AMD_U280.hbm_capacity_gb == 8.0
        assert AMD_U280.frequency_mhz == 250.0

    def test_u280_dfx_uses_fp16_at_200mhz(self):
        assert AMD_U280_DFX.frequency_mhz == 200.0
        assert AMD_U280_DFX.quantization == FP16

    def test_registry(self):
        assert FPGA_PLATFORMS["u55c"] is AMD_U55C


class TestDerivedQuantities:
    def test_bandwidth_per_cycle(self):
        expected = 460e9 / 250e6
        assert AMD_U55C.hbm_bandwidth_bytes_per_cycle == pytest.approx(expected)

    def test_cycles_to_seconds(self):
        # 250 MHz: a million cycles take 4 ms.
        assert AMD_U55C.cycles_to_seconds(1e6) == pytest.approx(4e-3)

    def test_memory_resources_cover_onchip_capacity(self):
        resources = AMD_U55C.memory_resources()
        kinds = {r.kind for r in resources}
        assert kinds == {MemoryKind.URAM, MemoryKind.BRAM, MemoryKind.LUTRAM}
        total = sum(r.total_bytes for r in resources)
        assert total == pytest.approx(AMD_U55C.onchip_memory_bytes, rel=0.05)

    def test_quantization_name(self):
        assert W4A8.name == "W4A8"
        assert FP16.name == "W16A16"
