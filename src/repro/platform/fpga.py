"""FPGA platform models (Table 6 of the paper).

A :class:`FpgaPlatform` captures everything the compiler and the evaluation
need about a board: clock frequency, external-memory bandwidth, on-chip
memory capacity (split into URAM/BRAM/LUTRAM), DSP count, die (SLR) count
and thermal design power.  The defaults reproduce the AMD U55C used for
StreamTensor and the U280 used by the Allo and DFX baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.resource.memory_alloc import MemoryKind, MemoryResource


@dataclass(frozen=True)
class Quantization:
    """A weight/activation quantisation scheme (e.g. W4A8)."""

    weight_bits: int
    activation_bits: int

    @property
    def name(self) -> str:
        return f"W{self.weight_bits}A{self.activation_bits}"


W4A8 = Quantization(4, 8)
W8A8 = Quantization(8, 8)
FP16 = Quantization(16, 16)


@dataclass(frozen=True)
class FpgaPlatform:
    """An FPGA accelerator card.

    Attributes:
        name: Board name.
        frequency_mhz: Kernel clock frequency.
        peak_int8_tops: Peak INT8 throughput in tera-ops/s.
        hbm_bandwidth_gbs: External-memory bandwidth (GB/s).
        hbm_capacity_gb: External-memory capacity (GB).
        onchip_memory_mb: Total usable on-chip memory (MB).
        dsp_count: Number of DSP slices.
        num_dies: Super logic regions (SLRs) on the device.
        tdp_watts: Thermal design power.
        process_node_nm: Manufacturing node.
        quantization: Default LLM quantisation deployed on the board.
    """

    name: str
    frequency_mhz: float
    peak_int8_tops: float
    hbm_bandwidth_gbs: float
    hbm_capacity_gb: float
    onchip_memory_mb: float
    dsp_count: int
    num_dies: int
    tdp_watts: float
    process_node_nm: int
    quantization: Quantization = W4A8

    @property
    def frequency_hz(self) -> float:
        return self.frequency_mhz * 1e6

    @property
    def onchip_memory_bytes(self) -> float:
        return self.onchip_memory_mb * 1e6

    @property
    def hbm_bandwidth_bytes_per_cycle(self) -> float:
        return self.hbm_bandwidth_gbs * 1e9 / self.frequency_hz

    def memory_resources(self) -> List[MemoryResource]:
        """Split the on-chip memory into URAM/BRAM/LUTRAM pools.

        The split follows the U55C/U280 ratios: URAM dominates capacity,
        BRAM provides many small blocks, LUTRAM a small distributed pool.
        """
        total_bits = self.onchip_memory_bytes * 8
        uram_bits = int(total_bits * 0.70)
        bram_bits = int(total_bits * 0.25)
        lutram_bits = int(total_bits * 0.05)
        return [
            MemoryResource(MemoryKind.URAM, 288 * 1024, max(1, uram_bits // (288 * 1024))),
            MemoryResource(MemoryKind.BRAM, 36 * 1024, max(1, bram_bits // (36 * 1024))),
            MemoryResource(MemoryKind.LUTRAM, 1024, max(1, lutram_bits // 1024)),
        ]

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz


# Table 6 platform instances -------------------------------------------------
AMD_U55C = FpgaPlatform(
    name="AMD U55C",
    frequency_mhz=250.0,
    peak_int8_tops=24.5,
    hbm_bandwidth_gbs=460.0,
    hbm_capacity_gb=16.0,
    onchip_memory_mb=41.0,
    dsp_count=9024,
    num_dies=3,
    tdp_watts=150.0,
    process_node_nm=16,
    quantization=W4A8,
)

AMD_U280 = FpgaPlatform(
    name="AMD U280",
    frequency_mhz=250.0,
    peak_int8_tops=24.5,
    hbm_bandwidth_gbs=460.0,
    hbm_capacity_gb=8.0,
    onchip_memory_mb=41.0,
    dsp_count=9024,
    num_dies=3,
    tdp_watts=225.0,
    process_node_nm=16,
    quantization=W4A8,
)

AMD_U280_DFX = FpgaPlatform(
    name="AMD U280 (DFX)",
    frequency_mhz=200.0,
    peak_int8_tops=24.5,
    hbm_bandwidth_gbs=460.0,
    hbm_capacity_gb=8.0,
    onchip_memory_mb=41.0,
    dsp_count=9024,
    num_dies=3,
    tdp_watts=225.0,
    process_node_nm=16,
    quantization=FP16,
)

FPGA_PLATFORMS: Dict[str, FpgaPlatform] = {
    "u55c": AMD_U55C,
    "u280": AMD_U280,
    "u280_dfx": AMD_U280_DFX,
}
