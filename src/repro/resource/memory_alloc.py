"""On-chip memory allocation (Section 5.3, item 3).

FPGAs provide three kinds of on-chip storage with very different
granularities: URAM (288 Kb blocks), BRAM (36 Kb blocks) and LUTRAM (built
from logic LUTs, tiny but plentiful).  StreamTensor places each buffer by a
simple size-prioritised heuristic: the largest buffers go to URAM, medium
buffers to BRAM, and small buffers (short FIFOs, staging registers) to
LUTRAM; when a resource class is exhausted the allocation spills to the next
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Sequence


class MemoryKind(Enum):
    """FPGA on-chip memory resource classes."""

    LUTRAM = "lutram"
    BRAM = "bram"
    URAM = "uram"


@dataclass(frozen=True)
class MemoryResource:
    """Available capacity of one memory class."""

    kind: MemoryKind
    block_bits: int
    num_blocks: int

    @property
    def total_bytes(self) -> float:
        return self.block_bits * self.num_blocks / 8.0


@dataclass(frozen=True)
class BufferRequest:
    """One buffer (FIFO, converter bank, DMA stage) to place."""

    name: str
    bytes: float

    def __post_init__(self) -> None:
        if self.bytes < 0:
            raise ValueError(f"buffer {self.name}: negative size")


@dataclass
class MemoryAllocation:
    """Placement of every buffer plus per-class utilisation."""

    placements: Dict[str, MemoryKind] = field(default_factory=dict)
    blocks_used: Dict[MemoryKind, int] = field(default_factory=dict)
    bytes_used: Dict[MemoryKind, float] = field(default_factory=dict)
    spilled: List[str] = field(default_factory=list)

    def utilization(self, resources: Sequence[MemoryResource]) -> Dict[MemoryKind, float]:
        util = {}
        for resource in resources:
            used = self.blocks_used.get(resource.kind, 0)
            util[resource.kind] = used / resource.num_blocks if resource.num_blocks else 0.0
        return util


# Default thresholds (bytes): buffers above ``uram_threshold`` prefer URAM,
# buffers below ``lutram_threshold`` prefer LUTRAM, the rest prefer BRAM.
DEFAULT_URAM_THRESHOLD = 16 * 1024
DEFAULT_LUTRAM_THRESHOLD = 256


def _preferred_order(size_bytes: float,
                     uram_threshold: float,
                     lutram_threshold: float) -> List[MemoryKind]:
    if size_bytes >= uram_threshold:
        return [MemoryKind.URAM, MemoryKind.BRAM, MemoryKind.LUTRAM]
    if size_bytes <= lutram_threshold:
        return [MemoryKind.LUTRAM, MemoryKind.BRAM, MemoryKind.URAM]
    return [MemoryKind.BRAM, MemoryKind.URAM, MemoryKind.LUTRAM]


def allocate_memory(requests: Sequence[BufferRequest],
                    resources: Sequence[MemoryResource],
                    uram_threshold: float = DEFAULT_URAM_THRESHOLD,
                    lutram_threshold: float = DEFAULT_LUTRAM_THRESHOLD,
                    ) -> MemoryAllocation:
    """Place buffers into memory classes, largest first.

    Args:
        requests: Buffers to place.
        resources: Available memory classes and their capacities.
        uram_threshold: Size above which a buffer prefers URAM.
        lutram_threshold: Size below which a buffer prefers LUTRAM.

    Returns:
        The allocation; buffers that fit nowhere are listed in ``spilled``
        (the caller should then reduce tiling/unrolling or fusion scope).
    """
    by_kind = {r.kind: r for r in resources}
    remaining_blocks = {r.kind: r.num_blocks for r in resources}
    allocation = MemoryAllocation(
        blocks_used={r.kind: 0 for r in resources},
        bytes_used={r.kind: 0.0 for r in resources},
    )

    for request in sorted(requests, key=lambda r: r.bytes, reverse=True):
        placed = False
        for kind in _preferred_order(request.bytes, uram_threshold, lutram_threshold):
            resource = by_kind.get(kind)
            if resource is None:
                continue
            blocks_needed = max(1, math.ceil(request.bytes * 8 / resource.block_bits))
            if blocks_needed <= remaining_blocks[kind]:
                remaining_blocks[kind] -= blocks_needed
                allocation.placements[request.name] = kind
                allocation.blocks_used[kind] += blocks_needed
                allocation.bytes_used[kind] += request.bytes
                placed = True
                break
        if not placed:
            allocation.spilled.append(request.name)
    return allocation
