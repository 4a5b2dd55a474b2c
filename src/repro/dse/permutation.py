"""Heuristic loop permutation (Section 5.1).

Pipeline loops achieve an initiation interval (II) of 1 only when the loop
carried dependence distance is large enough; reduction loops carry the
accumulation dependence, so keeping them *outside* the innermost parallel
loops reduces the II.  Streaming also benefits: with parallel loops innermost,
consecutive tokens touch contiguous data, reducing the converter memory
needed downstream.

The heuristic therefore moves reduction loops outward while preserving the
relative order of parallel loops (and of reduction loops among themselves).
"""

from __future__ import annotations

from typing import List

from repro.dse.tiling_space import KernelNode, TilingSpace
from repro.ir.ops import IteratorType


def reduction_outward_permutation(node: KernelNode) -> List[int]:
    """Loop order for one kernel: reduction dims first (outermost), then
    parallel dims, each group preserving its original relative order."""
    reduction = [i for i, t in enumerate(node.loop_types)
                 if t is IteratorType.REDUCTION]
    parallel = [i for i, t in enumerate(node.loop_types)
                if t is IteratorType.PARALLEL]
    return reduction + parallel


def streaming_tile_loop_order(node: KernelNode) -> List[int]:
    """Tile-loop (stream) order: parallel loops outermost, reductions innermost.

    The stream layout of every kernel interface follows the *tile-loop*
    order.  Producers stream their output tiles across their parallel loops
    in original order, so consumers that also scan parallel dims outermost
    (with reduction/re-access loops innermost) share those outer loops — the
    layout converters between them then only buffer a thin slice (Algorithm
    1).  This is the permutation choice that "reduces memory utilization
    during data streaming" (Pitfall 1).
    """
    parallel = [i for i, t in enumerate(node.loop_types)
                if t is IteratorType.PARALLEL]
    reduction = [i for i, t in enumerate(node.loop_types)
                 if t is IteratorType.REDUCTION]
    return parallel + reduction


def apply_permutation_heuristic(space: TilingSpace) -> None:
    """Set both loop orders on every kernel node of the space.

    ``tile_loop_order`` (streaming) keeps parallel loops outermost;
    ``permutation`` (intra-tile pipeline) moves reduction loops outward to
    reduce the initiation interval of the pipelined point loops.
    """
    for node in space.nodes:
        node.tile_loop_order = streaming_tile_loop_order(node)
        node.permutation = reduction_outward_permutation(node)
