"""Tests for the LUTRAM/BRAM/URAM memory allocation heuristic."""

import pytest

from repro.resource.memory_alloc import (
    BufferRequest,
    MemoryKind,
    MemoryResource,
    allocate_memory,
)


def standard_resources():
    return [
        MemoryResource(MemoryKind.URAM, 288 * 1024, 100),
        MemoryResource(MemoryKind.BRAM, 36 * 1024, 200),
        MemoryResource(MemoryKind.LUTRAM, 1024, 500),
    ]


class TestAllocateMemory:
    def test_large_buffers_prefer_uram(self):
        allocation = allocate_memory([BufferRequest("big", 200_000)],
                                     standard_resources())
        assert allocation.placements["big"] is MemoryKind.URAM

    def test_medium_buffers_prefer_bram(self):
        allocation = allocate_memory([BufferRequest("mid", 4_000)],
                                     standard_resources())
        assert allocation.placements["mid"] is MemoryKind.BRAM

    def test_small_buffers_prefer_lutram(self):
        allocation = allocate_memory([BufferRequest("tiny", 64)],
                                     standard_resources())
        assert allocation.placements["tiny"] is MemoryKind.LUTRAM

    def test_spill_to_next_class_when_exhausted(self):
        resources = [
            MemoryResource(MemoryKind.URAM, 288 * 1024, 1),
            MemoryResource(MemoryKind.BRAM, 36 * 1024, 100),
            MemoryResource(MemoryKind.LUTRAM, 1024, 10),
        ]
        requests = [BufferRequest(f"b{i}", 100_000) for i in range(3)]
        allocation = allocate_memory(requests, resources)
        kinds = set(allocation.placements.values())
        assert MemoryKind.BRAM in kinds
        assert not allocation.spilled

    def test_unplaceable_buffers_reported(self):
        resources = [MemoryResource(MemoryKind.BRAM, 36 * 1024, 1)]
        requests = [BufferRequest("huge", 10_000_000)]
        allocation = allocate_memory(requests, resources)
        assert allocation.spilled == ["huge"]

    def test_largest_first_priority(self):
        """When URAM is scarce the biggest buffer claims it first."""
        resources = [
            MemoryResource(MemoryKind.URAM, 288 * 1024, 14),
            MemoryResource(MemoryKind.BRAM, 36 * 1024, 1000),
        ]
        requests = [BufferRequest("small", 20_000), BufferRequest("big", 500_000)]
        allocation = allocate_memory(requests, resources)
        assert allocation.placements["big"] is MemoryKind.URAM
        assert allocation.placements["small"] is MemoryKind.BRAM

    def test_utilization_report(self):
        resources = standard_resources()
        allocation = allocate_memory([BufferRequest("b", 288 * 1024 / 8)], resources)
        util = allocation.utilization(resources)
        assert util[MemoryKind.URAM] == pytest.approx(1 / 100)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BufferRequest("bad", -1.0)

    def test_compiled_design_fits_on_u55c(self, gpt2_compiled):
        """The fused GPT-2 decode block must fit the U55C's on-chip memory."""
        assert gpt2_compiled.memory_allocation is not None
        assert not gpt2_compiled.memory_allocation.spilled
