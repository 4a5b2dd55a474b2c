"""Kernel-interface packing and widening (Section 4.2, tail of Figure 6).

External memory (DDR/HBM) delivers peak bandwidth only for wide, contiguous
bursts.  After fusion, StreamTensor therefore rewrites every external-memory
interface:

* ``tensor.pack`` converts the default row-major layout into a tiled layout
  whose innermost block matches the DMA's streaming tile, so each tile is one
  contiguous burst (``64x64`` -> ``4x4x16x16`` for ``16x16`` tiles);
* widening groups elements into vectors that fill the memory bus (e.g. 64
  ``uint8`` elements for a 512-bit HBM port), giving ``4x4x2x2xvector<8x8>``.

Pack/widen of *static* tensors (model parameters) is folded into the stored
parameter files offline, so it costs nothing at run time; for dynamic tensors
they only remain at the model's true inputs and outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.dataflow.structure import DataflowGraph
from repro.ir.dtypes import DType
from repro.ir.types import TensorType
from repro.itensor.itensor_type import ITensorType

#: External-memory bus width (bits) every interface is widened to: one
#: 512-bit HBM pseudo-channel port of the target boards.
MEMORY_BUS_BITS = 512


@dataclass(frozen=True)
class PackedLayout:
    """A packed + widened external-memory layout for one interface.

    Attributes:
        outer_shape: Number of tiles along each data dimension.
        tile_shape: Tile shape (the DMA's streamed element).
        vector_shape: Vector grouping inside the tile filling the memory bus.
        dtype: Element type.
    """

    outer_shape: Tuple[int, ...]
    tile_shape: Tuple[int, ...]
    vector_shape: Tuple[int, ...]
    dtype: DType

    @property
    def total_bytes(self) -> float:
        total_elements = math.prod(self.outer_shape) * math.prod(self.tile_shape)
        return total_elements * self.dtype.bits / 8.0

    def widened_shape(self) -> Tuple[int, ...]:
        """The widened tensor shape, e.g. ``4x4x2x2`` of ``vector<8x8>``."""
        inner = tuple(t // v for t, v in zip(self.tile_shape, self.vector_shape))
        return self.outer_shape + inner

    def __str__(self) -> str:
        outer = "x".join(str(d) for d in self.widened_shape())
        vec = "x".join(str(d) for d in self.vector_shape)
        return f"tensor<{outer}xvector<{vec}x{self.dtype}>>"


def widen_for_bus(tile_shape: Sequence[int], dtype: DType,
                  bus_bits: int = MEMORY_BUS_BITS) -> Tuple[int, ...]:
    """Choose a vector shape inside the tile that fills the memory bus.

    The widening budget (bus bits / element bits) is distributed as evenly as
    possible across the tile dimensions — the paper's example widens a
    ``16x16`` tile of 8-bit elements over a 512-bit bus into ``vector<8x8>``.
    The vector never exceeds the tile shape along any dimension.
    """
    target_elements = max(1, bus_bits // dtype.bits)
    vector = [1] * len(tile_shape)
    if not tile_shape:
        return tuple(vector)
    current = 1
    while current < target_elements:
        # Grow the currently smallest vector dimension that can still double.
        growable = [dim for dim, extent in enumerate(tile_shape)
                    if vector[dim] * 2 <= extent and extent % (vector[dim] * 2) == 0]
        if not growable:
            break
        dim = min(growable, key=lambda d: vector[d])
        vector[dim] *= 2
        current *= 2
    return tuple(vector)


def pack_interface(tensor: TensorType, itype: ITensorType,
                   bus_bits: int = MEMORY_BUS_BITS) -> PackedLayout:
    """Derive the packed + widened external layout for one kernel interface."""
    tile_shape = itype.element_shape
    outer_shape = tuple(
        max(1, full // tile) for full, tile in zip(tensor.shape, tile_shape)
    )
    vector_shape = widen_for_bus(tile_shape, tensor.dtype, bus_bits)
    return PackedLayout(outer_shape=outer_shape, tile_shape=tuple(tile_shape),
                        vector_shape=vector_shape, dtype=tensor.dtype)


@dataclass
class PackingResult:
    """Summary of interface packing over a dataflow graph."""

    interfaces: int = 0
    parameter_interfaces: int = 0
    runtime_pack_bytes: float = 0.0
    layouts: List[PackedLayout] = field(default_factory=list)


def pack_kernel_interfaces(graph: DataflowGraph) -> PackingResult:
    """Pack and widen every external-memory interface of the graph.

    Only memory edges are packed (stream edges never touch external memory).
    Parameter interfaces are marked as statically packed — the host packs
    them once, offline — while dynamic interfaces contribute to the runtime
    packing cost reported by Figure 10b's ``Param_Packing``/host stage.
    """
    result = PackingResult()
    for edge in graph.memory_edges():
        itype = edge.consumer_type or edge.producer_type
        if itype is None:
            continue
        layout = pack_interface(edge.tensor, itype)
        if edge.is_parameter:
            result.parameter_interfaces += 1
        else:
            result.runtime_pack_bytes += layout.total_bytes
        result.interfaces += 1
        result.layouts.append(layout)
    return result
