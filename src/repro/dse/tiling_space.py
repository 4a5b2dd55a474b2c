"""The Linalg tiling design space (Section 5.1).

The tiling space is represented as a graph of Linalg operations annotated
with loop properties (trip counts, step sizes, loop types); exploration
results are written back onto this graph to configure the tiling pass.  The
space has three axes per kernel:

* tiling factors — a single user-visible hyperparameter ``default_tile_size``
  applied across all dimensions of all kernels (the paper's "naive tiling");
* unrolling factors — chosen by the intensity-driven algorithm
  (:mod:`repro.dse.unrolling`);
* permutation — chosen by the reduction-outward heuristic
  (:mod:`repro.dse.permutation`).

Vectorisation factors follow from the unroll factors, so the space holds
none: :func:`repro.dataflow.vectorize.vectorize_graph` sizes every FIFO
vector from its consumer's unroll factor once the dataflow graph exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dataflow.tiling import TilingConfig, _largest_divisor
from repro.ir.graph import Graph
from repro.ir.ops import IteratorType, LinalgOp


@dataclass
class KernelNode:
    """One node of the tiling-space graph: a Linalg op plus its annotations."""

    op: LinalgOp
    loop_bounds: List[int]
    loop_types: List[IteratorType]
    tile_sizes: List[int] = field(default_factory=list)
    unroll_factor: int = 1
    #: Tile-loop (streaming) order: determines the itensor stream layout of
    #: every kernel interface, so it keeps parallel loops outermost to match
    #: producers and minimise converter memory.
    tile_loop_order: Optional[List[int]] = None
    #: Intra-tile pipeline loop order from the reduction-outward heuristic;
    #: it only affects the achievable pipeline II, not the stream layout.
    permutation: Optional[List[int]] = None
    #: Total scalar operations of the kernel (latency proxy), derived once
    #: from ``loop_bounds``.
    work: int = field(init=False)

    def __post_init__(self) -> None:
        self.work = math.prod(self.loop_bounds) * self.op.flops_per_iteration

    @property
    def name(self) -> str:
        return self.op.name

    def latency_estimate(self) -> float:
        """Cycles assuming ``unroll_factor``-way spatial parallelism."""
        return self.work / max(1, self.unroll_factor)

    def to_config(self) -> TilingConfig:
        return TilingConfig(
            tile_sizes=list(self.tile_sizes),
            permutation=list(self.tile_loop_order) if self.tile_loop_order else None,
            unroll_factor=self.unroll_factor,
        )


@dataclass
class TilingSpace:
    """The whole Linalg tiling space for a graph.

    Attributes:
        nodes: One :class:`KernelNode` per non-constant op.
        default_tile_size: Hyperparameter applied to every dimension.
        overall_unroll_size: Total unroll budget distributed by the
            intensity-driven algorithm.
    """

    nodes: List[KernelNode]
    default_tile_size: int = 16
    overall_unroll_size: int = 64

    @staticmethod
    def from_graph(graph: Graph, default_tile_size: int = 16,
                   overall_unroll_size: int = 64) -> "TilingSpace":
        nodes = []
        for op in graph.topological_sort():
            if op.is_constant:
                continue
            nodes.append(KernelNode(
                op=op,
                loop_bounds=op.loop_bounds(),
                loop_types=list(op.iterator_types),
            ))
        return TilingSpace(nodes=nodes, default_tile_size=default_tile_size,
                           overall_unroll_size=overall_unroll_size)

    def fresh(self, default_tile_size: int,
              overall_unroll_size: int) -> "TilingSpace":
        """An unexplored space over the same ops with new hyperparameters.

        The new nodes share each op's loop bounds and loop types (read-only)
        instead of inferring them again.
        """
        nodes = [KernelNode(op=node.op, loop_bounds=node.loop_bounds,
                            loop_types=node.loop_types) for node in self.nodes]
        return TilingSpace(nodes=nodes, default_tile_size=default_tile_size,
                           overall_unroll_size=overall_unroll_size)

    def layout(self) -> Tuple:
        """Each kernel's tile sizes and tile-loop order.

        This is all of the space that the Linalg-to-dataflow conversion
        turns into itensor types; unroll factors only become kernel
        attributes.
        """
        return tuple((tuple(node.tile_sizes), tuple(node.tile_loop_order or ()))
                     for node in self.nodes)

    def node(self, name: str) -> KernelNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no kernel node named {name!r}")

    # ------------------------------------------------------------------
    # Naive tiling
    # ------------------------------------------------------------------
    def apply_naive_tiling(self) -> None:
        """Apply ``default_tile_size`` to every dimension of every kernel,
        clamped to the loop bound and snapped to a divisor of it."""
        for node in self.nodes:
            node.tile_sizes = [
                _largest_divisor(bound, self.default_tile_size)
                for bound in node.loop_bounds
            ]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_configs(self) -> Dict[str, TilingConfig]:
        return {node.name: node.to_config() for node in self.nodes}

    def total_latency_estimate(self) -> float:
        """Pipeline-limited latency estimate: the slowest kernel dominates
        throughput, every kernel contributes its fill latency once."""
        if not self.nodes:
            return 0.0
        slowest = max(node.latency_estimate() for node in self.nodes)
        fill = sum(node.latency_estimate() for node in self.nodes) / len(self.nodes)
        return slowest + fill

    def total_unroll(self) -> int:
        return sum(node.unroll_factor for node in self.nodes)
