"""Intensity-driven unrolling (Section 5.1).

Dataflow kernels execute in a pipeline, so overall throughput is set by the
slowest kernel.  The intensity-driven algorithm therefore repeatedly selects
the kernel with the longest estimated latency (via a max-heap) and doubles
its unroll factor, until the total unroll budget ``overall_unroll_size`` is
spent.  This balances kernel latencies instead of wasting parallelism on
kernels that are already fast.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List

from repro.dse.tiling_space import KernelNode, TilingSpace


@dataclass
class UnrollDecision:
    """Record of one unrolling step, useful for debugging the DSE."""

    kernel: str
    old_factor: int
    new_factor: int
    latency_before: float
    latency_after: float


def max_unroll_for(node: KernelNode) -> int:
    """Upper bound on a kernel's unroll factor: the work inside one tile."""
    if node.tile_sizes:
        return max(1, math.prod(node.tile_sizes))
    return max(1, math.prod(node.loop_bounds))


def intensity_driven_unrolling(space: TilingSpace,
                               step_factor: int = 2) -> List[UnrollDecision]:
    """Distribute the unroll budget across kernels, slowest first.

    Args:
        space: The tiling space (tile sizes should already be set).
        step_factor: Multiplicative increase per step (2 = doubling).

    Returns:
        The list of unrolling decisions, in the order they were taken.
    """
    decisions: List[UnrollDecision] = []
    if not space.nodes:
        return decisions

    # Max-heap keyed on estimated latency (negate for heapq's min-heap).
    heap = [(-node.latency_estimate(), index) for index, node in enumerate(space.nodes)]
    heapq.heapify(heap)

    budget = space.overall_unroll_size - space.total_unroll()
    while budget > 0 and heap:
        neg_latency, index = heapq.heappop(heap)
        node = space.nodes[index]
        limit = max_unroll_for(node)
        if node.unroll_factor >= limit:
            # Fully unrolled within its tile: stop considering this kernel.
            continue
        old = node.unroll_factor
        new = min(limit, old * step_factor)
        increase = new - old
        if increase > budget:
            # Partial step to respect the budget exactly.
            new = old + budget
            increase = budget
        node.unroll_factor = new
        budget -= increase
        decisions.append(UnrollDecision(
            kernel=node.name,
            old_factor=old,
            new_factor=new,
            latency_before=-neg_latency,
            latency_after=node.latency_estimate(),
        ))
        heapq.heappush(heap, (-node.latency_estimate(), index))
    return decisions
