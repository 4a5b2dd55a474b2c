"""Stream-based dataflow kernel fusion (Section 4.2 + Algorithm 2).

Kernel fusion turns external-memory edges into on-chip stream edges: the
producer's tokens flow straight into the consumer through a FIFO, optionally
via a stream layout converter when the two itensor types disagree.  Fusing
everything is rarely possible — the converters cost on-chip memory — so
Algorithm 2 chooses a global fusion plan under a memory budget ``C_max``
(typically the FPGA's total on-chip memory):

* kernels are visited in topological order;
* each kernel gathers fusion candidates among the fused groups of its
  predecessors, the candidate cost being the converter memory required on the
  connecting edges;
* it fuses with the *nearest* candidate (the most recently created group) if
  the accumulated cost stays within ``C_max``, otherwise it starts a new
  group.

The resulting fused groups become the units mapped to a single FPGA; edges
between groups stay in external memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.dataflow.structure import (
    DEFAULT_FIFO_DEPTH,
    DataflowEdge,
    DataflowGraph,
    EdgeKind,
)
from repro.itensor.converter import converter_cost_bytes, infer_converter


@dataclass
class FusionPlan:
    """Result of the kernel-fusion exploration.

    Attributes:
        groups: Fused kernel groups; ``groups[i]`` is the set of kernel names
            with fusion index ``i``.
        costs: Accumulated converter memory cost (bytes) per group.
        c_max: The memory budget used.
    """

    groups: List[Set[str]] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)
    c_max: float = 0.0

    @property
    def num_groups(self) -> int:
        return sum(1 for group in self.groups if group)

    def group_of(self, kernel_name: str) -> int:
        for index, group in enumerate(self.groups):
            if kernel_name in group:
                return index
        raise KeyError(f"kernel {kernel_name!r} is not in any fused group")


def edge_fusion_cost(edge: DataflowEdge,
                     fifo_depth_estimate: int = DEFAULT_FIFO_DEPTH) -> float:
    """On-chip memory cost (bytes) of streaming this edge.

    The dominant term is the layout-converter ping-pong buffer; the FIFO
    itself is shallow until the FIFO-sizing stage and its cost is negligible
    in comparison (Section 5.3.4), but we include it for completeness.
    """
    if edge.producer_type is None or edge.consumer_type is None:
        return 0.0
    converter = converter_cost_bytes(edge.producer_type, edge.consumer_type)
    fifo = fifo_depth_estimate * edge.producer_type.element_bytes
    return converter + fifo


def explore_fusion(graph: DataflowGraph, c_max: float) -> FusionPlan:
    """Algorithm 2: choose which kernels to fuse under a memory budget.

    Args:
        graph: The dataflow graph after Linalg-to-dataflow conversion.
        c_max: Maximum on-chip memory (bytes) a single fused kernel may use
            for stream converters and FIFOs.

    Returns:
        The fusion plan; kernel ``fusion_index`` attributes are *not* applied
        here — use :func:`apply_fusion` for that.
    """
    # F <- [empty], C <- [0]: index 0 is a sentinel group that never receives
    # kernels, exactly as in the paper's pseudocode.
    groups: List[Set[str]] = [set()]
    costs: List[float] = [0.0]
    membership: Dict[str, int] = {}

    for kernel in graph.topological_order():
        candidates: Dict[int, float] = {}
        for edge in graph.in_edges(kernel):
            if edge.producer is None:
                continue
            cost = edge_fusion_cost(edge)
            group_index = membership[edge.producer.name]
            candidates[group_index] = candidates.get(group_index, 0.0) + cost

        fuse_index = len(groups)
        fuse_cost = 0.0
        if candidates:
            # Fuse with the nearest (most recently created) candidate group.
            fuse_index = max(candidates.keys())
            fuse_cost = candidates[fuse_index]

        if fuse_index == len(groups) or fuse_cost + costs[fuse_index] > c_max:
            groups.append({kernel.name})
            costs.append(0.0)
            membership[kernel.name] = len(groups) - 1
        else:
            groups[fuse_index].add(kernel.name)
            costs[fuse_index] += fuse_cost
            membership[kernel.name] = fuse_index

    return FusionPlan(groups=groups, costs=costs, c_max=c_max)


def apply_fusion(graph: DataflowGraph, plan: FusionPlan) -> DataflowGraph:
    """Apply a fusion plan to the graph in place.

    Kernels receive their ``fusion_index``; edges between kernels of the same
    group become ``STREAM`` edges with a converter spec attached when the
    endpoint itensor types are incompatible; edges across groups remain
    ``MEMORY`` edges.
    """
    for kernel in graph.kernels:
        kernel.fusion_index = plan.group_of(kernel.name)

    for edge in graph.internal_edges():
        assert edge.producer is not None and edge.consumer is not None
        same_group = edge.producer.fusion_index == edge.consumer.fusion_index
        if not same_group:
            edge.kind = EdgeKind.MEMORY
            edge.converter = None
            continue
        edge.kind = EdgeKind.STREAM
        if edge.needs_converter:
            edge.converter = infer_converter(edge.producer_type, edge.consumer_type)
        else:
            edge.converter = None
    return graph


def fuse_kernels(graph: DataflowGraph, c_max: float) -> FusionPlan:
    """Convenience wrapper: explore and apply fusion in one call."""
    plan = explore_fusion(graph, c_max)
    apply_fusion(graph, plan)
    return plan


def fusion_memory_report(graph: DataflowGraph) -> Dict[str, float]:
    """Figure 10a data point for one model: intermediate-result memory before
    and after stream-based kernel fusion (bytes)."""
    before = graph.intermediate_bytes_unfused()
    after = graph.intermediate_bytes_fused()
    ratio = after / before if before > 0 else 1.0
    return {
        "original_bytes": before,
        "fused_bytes": after,
        "ratio": ratio,
    }
