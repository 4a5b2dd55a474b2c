"""LP-based FIFO sizing (Section 5.3.4, Figure 8(f)).

The token behaviour model turns FIFO sizing into a *scheduling* problem:
choose the relative start delay of every producer-consumer pair so that no
kernel ever waits on a token that cannot have been produced yet, then derive
each FIFO's depth from its delay via Equations (1)/(2).

The linear program:

* one variable ``delay(i, j)`` per dataflow edge;
* objective (Eq. 3): minimise the sum of all delays — a proxy for total FIFO
  memory, since ``max_tokens`` grows monotonically with ``delay``;
* constraints (Eq. 4): for every pair of kernels ``(u, v)`` and every path
  between them, the accumulated delay along the path must be at least
  ``threshold(u, v)`` — the largest accumulated initial delay over *any*
  path from ``u`` to ``v`` (Eq. 5).  This aligns reconvergent paths: a kernel
  with two operands cannot start before the slower path delivers its first
  token, so the FIFO on the faster path must buffer the difference.

Sizing every FIFO to its resulting ``max_tokens`` prevents back-pressure and
hence both deadlock and throughput-degrading stall cascades.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.structure import DataflowGraph
from repro.resource.token_model import (
    EqualizationStrategy,
    KernelTiming,
    equalize_timings,
    max_tokens_from_delay,
)


@dataclass
class FifoSizingResult:
    """Outcome of the FIFO-sizing LP for one fused dataflow design."""

    delays: Dict[Tuple[str, str], float] = field(default_factory=dict)
    depths: Dict[Tuple[str, str], int] = field(default_factory=dict)
    total_depth: int = 0
    total_fifo_bytes: float = 0.0
    lp_status: str = "not-run"
    strategy: EqualizationStrategy = EqualizationStrategy.NORMAL

    def depth_of(self, producer: str, consumer: str) -> int:
        return self.depths[(producer, consumer)]


@dataclass(frozen=True)
class SizingEdge:
    """One producer-consumer stream connection to size."""

    producer: str
    consumer: str
    total_tokens: int
    token_bytes: float = 4.0


def _successors(edges: Sequence[SizingEdge]) -> Dict[str, List[str]]:
    """Each kernel's distinct consumers, kernels and consumers both in
    first-appearance order (the order the LP rows are emitted in)."""
    succ: Dict[str, Dict[str, None]] = {}
    for edge in edges:
        succ.setdefault(edge.producer, {})[edge.consumer] = None
        succ.setdefault(edge.consumer, {})
    return {node: list(targets) for node, targets in succ.items()}


def _topological_order(succ: Dict[str, List[str]]) -> Optional[List[str]]:
    """Kahn's algorithm; None if the graph has a cycle."""
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for target in targets:
            indegree[target] += 1
    order = [node for node, degree in indegree.items() if degree == 0]
    for node in order:
        for target in succ[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                order.append(target)
    return order if len(order) == len(succ) else None


def _thresholds(succ: Dict[str, List[str]], order: List[str],
                timings: Dict[str, KernelTiming]) -> Dict[Tuple[str, str], float]:
    """Eq. 5: longest accumulated initial delay between every kernel pair."""
    thresholds: Dict[Tuple[str, str], float] = {}
    for source in order:
        # Longest path (in accumulated D of traversed producers) from source.
        dist: Dict[str, float] = {source: 0.0}
        for node in order:
            if node not in dist:
                continue
            for target in succ[node]:
                candidate = dist[node] + timings[node].initial_delay
                if candidate > dist.get(target, float("-inf")):
                    dist[target] = candidate
        for target, value in dist.items():
            if target != source:
                thresholds[(source, target)] = value
    return thresholds


def _enumerate_paths(succ: Dict[str, List[str]], order: List[str],
                     max_paths_per_pair: int = 64,
                     ) -> Dict[Tuple[str, str], List[List[Tuple[str, str]]]]:
    """The first ``max_paths_per_pair`` paths (as edge lists) between every
    connected kernel pair, depth first over each kernel's consumers."""
    reach: Dict[str, set] = {}
    for node in reversed(order):
        reach[node] = set(succ[node]).union(*(reach[t] for t in succ[node]))

    def walk(node: str, target: str, path: List[Tuple[str, str]],
             found: List[List[Tuple[str, str]]]) -> None:
        for nxt in succ[node]:
            if len(found) == max_paths_per_pair:
                return
            if nxt == target:
                found.append(path + [(node, nxt)])
            elif target in reach[nxt]:
                walk(nxt, target, path + [(node, nxt)], found)

    paths: Dict[Tuple[str, str], List[List[Tuple[str, str]]]] = {}
    for source, target in itertools.permutations(succ, 2):
        if target in reach[source]:
            found: List[List[Tuple[str, str]]] = []
            walk(source, target, [], found)
            paths[(source, target)] = found
    return paths


def solve_delays(edges: Sequence[SizingEdge],
                 timings: Dict[str, KernelTiming],
                 max_paths_per_pair: int = 64,
                 ) -> Tuple[Dict[Tuple[str, str], float], str]:
    """Solve the delay LP (Eq. 3-5) with scipy's linprog.

    Returns the per-edge delays and the solver status string.  If the LP is
    infeasible or degenerate (should not happen for a DAG), the per-edge
    thresholds are used as a safe fallback.
    """
    # scipy is imported here, so importing the serving stack (which never
    # sizes FIFOs) does not load it.
    from scipy.optimize import linprog

    if not edges:
        return {}, "empty"

    succ = _successors(edges)
    order = _topological_order(succ)
    if order is None:
        raise ValueError("FIFO sizing requires an acyclic dataflow graph")

    edge_keys = [(e.producer, e.consumer) for e in edges]
    edge_index = {key: i for i, key in enumerate(edge_keys)}
    thresholds = _thresholds(succ, order, timings)
    paths = _enumerate_paths(succ, order, max_paths_per_pair)

    # Build A_ub x <= b_ub for constraints  -sum(delay on path) <= -threshold.
    rows: List[List[int]] = []
    bounds_rhs: List[float] = []
    for (source, target), pair_paths in paths.items():
        threshold = thresholds.get((source, target), 0.0)
        if threshold <= 0:
            continue
        for path_edges in pair_paths:
            rows.append([edge_index[key] for key in path_edges])
            bounds_rhs.append(-threshold)

    # Every delay is at least the producer's own initial delay and non-negative.
    lower_bounds = []
    for producer, consumer in edge_keys:
        lower_bounds.append(max(0.0, timings[producer].initial_delay))

    c = np.ones(len(edge_keys))
    a_ub = b_ub = None
    if rows:
        a_ub = np.zeros((len(rows), len(edge_keys)))
        for r, columns in enumerate(rows):
            a_ub[r, columns] = -1.0
        b_ub = np.array(bounds_rhs)
    variable_bounds = [(lb, None) for lb in lower_bounds]

    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=variable_bounds,
                     method="highs")
    if result.success:
        delays = {key: float(result.x[i]) for key, i in edge_index.items()}
        return delays, "optimal"

    # Fallback: per-edge pair thresholds (always feasible, possibly larger).
    delays = {}
    for key in edge_keys:
        delays[key] = max(lower_bounds[edge_index[key]],
                          thresholds.get(key, 0.0))
    return delays, f"fallback ({result.message})"


def size_fifos(edges: Sequence[SizingEdge],
               timings: Dict[str, KernelTiming],
               strategy: EqualizationStrategy = EqualizationStrategy.NORMAL,
               max_paths_per_pair: int = 64) -> FifoSizingResult:
    """Size every FIFO of a fused dataflow design.

    Args:
        edges: The stream connections to size.
        timings: Per-kernel token timing (from the HLS profiler).
        strategy: Normal or Conservative equalisation.
        max_paths_per_pair: Path-enumeration cap for the LP constraints.
    """
    names = sorted({e.producer for e in edges} | {e.consumer for e in edges})
    missing = [n for n in names if n not in timings]
    if missing:
        raise KeyError(f"missing kernel timings for {missing}")

    ordered = [timings[name] for name in names]
    equalized = {t.name: t for t in equalize_timings(ordered, strategy)}

    delays, status = solve_delays(edges, equalized, max_paths_per_pair)

    result = FifoSizingResult(strategy=strategy, lp_status=status)
    for edge in edges:
        key = (edge.producer, edge.consumer)
        delay = delays.get(key, equalized[edge.producer].initial_delay)
        depth = max_tokens_from_delay(
            equalized[edge.producer], equalized[edge.consumer],
            delay, total_tokens=edge.total_tokens,
        )
        depth = max(2, depth)
        result.delays[key] = delay
        result.depths[key] = depth
        result.total_depth += depth
        result.total_fifo_bytes += depth * edge.token_bytes
    return result


def sizing_edges_from_graph(graph: DataflowGraph) -> List[SizingEdge]:
    """Extract the stream edges of a dataflow graph for FIFO sizing."""
    edges = []
    for edge in graph.stream_edges():
        if edge.producer is None or edge.consumer is None:
            continue
        itype = edge.producer_type or edge.consumer_type
        token_bytes = itype.element_bytes if itype is not None else 4.0
        edges.append(SizingEdge(
            producer=edge.producer.name,
            consumer=edge.consumer.name,
            total_tokens=edge.token_count,
            token_bytes=token_bytes,
        ))
    return edges


def apply_fifo_sizes(graph: DataflowGraph, result: FifoSizingResult) -> None:
    """Write the solved depths back onto the graph's stream edges."""
    for edge in graph.stream_edges():
        if edge.producer is None or edge.consumer is None:
            continue
        key = (edge.producer.name, edge.consumer.name)
        if key in result.depths:
            edge.fifo_depth = result.depths[key]


def size_graph_fifos(graph: DataflowGraph,
                     timings: Dict[str, KernelTiming],
                     strategy: EqualizationStrategy = EqualizationStrategy.NORMAL,
                     ) -> FifoSizingResult:
    """Convenience wrapper: extract edges, solve, and apply depths."""
    edges = sizing_edges_from_graph(graph)
    if not edges:
        return FifoSizingResult(strategy=strategy, lp_status="no-stream-edges")
    result = size_fifos(edges, timings, strategy)
    apply_fifo_sizes(graph, result)
    return result
