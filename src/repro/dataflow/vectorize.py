"""Iterative tensor vectorisation (Section 4.3.3).

Dataflow kernels run in parallel internally (unrolled compute), so the FIFOs
feeding them must supply more than one element per cycle or the kernels
starve.  Vectorisation widens an itensor's token from a scalar to a vector
(e.g. ``vector<2x4>``): the write side gains a ``transfer_read`` from its
local buffer followed by a vector ``itensor_write``, and the read side the
mirrored transformation.  The FIFO bandwidth then matches the kernel's
spatial parallelism.

:func:`vectorize_graph` is the compiler's one vectorisation decision: each
stream edge's vector follows its consumer's unroll factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.dataflow.structure import DataflowGraph
from repro.itensor.itensor_type import ITensorType


@dataclass
class VectorizationResult:
    """Summary of a vectorisation pass run."""

    vectorized_edges: int = 0
    total_vector_elements: int = 0


def choose_vector_shape(itype: ITensorType, target_elements: int) -> Tuple[int, ...]:
    """Pick a vector shape with about ``target_elements`` elements per token.

    The vector must divide the element (tile) shape; we greedily widen from
    the innermost data dimension outwards, mirroring how HLS packs the
    innermost (unit-stride) dimension first.
    """
    if target_elements <= 1:
        return tuple(1 for _ in itype.element_shape)
    remaining = target_elements
    shape: List[int] = [1] * len(itype.element_shape)
    for dim in range(len(itype.element_shape) - 1, -1, -1):
        if remaining <= 1:
            break
        extent = itype.element_shape[dim]
        # Prefer the largest divisor of the extent that does not exceed the
        # remaining budget.
        best = 1
        for candidate in range(1, extent + 1):
            if extent % candidate == 0 and candidate <= remaining:
                best = candidate
        shape[dim] = best
        remaining = max(1, remaining // best)
    return tuple(shape)


def vectorize_itensor(itype: ITensorType, target_elements: int) -> ITensorType:
    """Return ``itype`` with a vector token of roughly ``target_elements``."""
    shape = choose_vector_shape(itype, target_elements)
    return itype.with_vector_shape(shape)


def vectorize_graph(graph: DataflowGraph) -> VectorizationResult:
    """Vectorise every stream edge of the graph in place.

    The vector width of an edge is the unroll factor of its *consumer*
    kernel, the side that must be kept busy.
    """
    result = VectorizationResult()
    for edge in graph.stream_edges():
        if edge.producer_type is None or edge.consumer_type is None:
            continue
        width = edge.consumer.tiled.config.unroll_factor
        edge.producer_type = vectorize_itensor(edge.producer_type, width)
        edge.consumer_type = vectorize_itensor(edge.consumer_type, width)
        result.vectorized_edges += 1
        if edge.producer_type.vector_shape is not None:
            result.total_vector_elements += math.prod(edge.producer_type.vector_shape)
    return result
