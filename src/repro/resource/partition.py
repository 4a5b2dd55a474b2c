"""Multi-die graph partitioning (Section 5.3, item 2).

Large FPGAs (e.g. the AMD U55C) are built from several dies (SLRs) connected
by a limited number of super-long-lines; placing tightly-connected tasks on
different dies hurts routing congestion and clock frequency.  StreamTensor
assigns tasks to dies with an ILP whose objective balances two terms:

* inter-die communication — the number (and width) of stream edges crossing
  a die boundary;
* resource imbalance — the spread of per-die resource utilisation.

We formulate the same 0/1 assignment problem.  When ``scipy.optimize.milp``
is available and the problem is small enough it is solved exactly; otherwise
a deterministic greedy refinement (Kernighan-Lin style single moves) provides
a good solution with the identical cost function, so downstream consumers see
the same interface either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.structure import DataflowGraph


@dataclass(frozen=True)
class PartitionTask:
    """One schedulable unit (kernel or task) to place on a die."""

    name: str
    resource: float
    predecessors: Tuple[str, ...] = ()


@dataclass
class PartitionResult:
    """Die assignment and its cost breakdown."""

    assignment: Dict[str, int] = field(default_factory=dict)
    num_dies: int = 1
    cut_edges: int = 0
    imbalance: float = 0.0
    objective: float = 0.0
    method: str = "greedy"

    def die_loads(self, tasks: Sequence[PartitionTask]) -> List[float]:
        loads = [0.0] * self.num_dies
        by_name = {t.name: t for t in tasks}
        for name, die in self.assignment.items():
            loads[die] += by_name[name].resource
        return loads


def _edges_of(tasks: Sequence[PartitionTask]) -> List[Tuple[str, str]]:
    names = {t.name for t in tasks}
    edges = []
    for task in tasks:
        for pred in task.predecessors:
            if pred in names:
                edges.append((pred, task.name))
    return edges


def _cost(tasks: Sequence[PartitionTask], assignment: Dict[str, int],
          num_dies: int, comm_weight: float, balance_weight: float,
          ) -> Tuple[float, int, float]:
    edges = _edges_of(tasks)
    cut = sum(1 for a, b in edges if assignment[a] != assignment[b])
    loads = [0.0] * num_dies
    for task in tasks:
        loads[assignment[task.name]] += task.resource
    total = sum(loads) or 1.0
    imbalance = (max(loads) - min(loads)) / total
    objective = comm_weight * cut + balance_weight * imbalance
    return objective, cut, imbalance


def _greedy_partition(tasks: Sequence[PartitionTask], num_dies: int,
                      capacity: Optional[float], comm_weight: float,
                      balance_weight: float) -> Dict[str, int]:
    """Topology-ordered first fit followed by single-move refinement."""
    assignment: Dict[str, int] = {}
    loads = [0.0] * num_dies
    per_die_target = sum(t.resource for t in tasks) / num_dies

    # Initial placement: keep the pipeline order contiguous, moving to the
    # next die when the running die reaches its share (or capacity).
    die = 0
    for task in tasks:
        limit = capacity if capacity is not None else per_die_target
        if loads[die] + task.resource > limit and die < num_dies - 1:
            die += 1
        assignment[task.name] = die
        loads[die] += task.resource

    # Refinement: move single tasks if it lowers the objective.
    improved = True
    while improved:
        improved = False
        base, _, _ = _cost(tasks, assignment, num_dies, comm_weight, balance_weight)
        for task in tasks:
            current = assignment[task.name]
            for candidate in range(num_dies):
                if candidate == current:
                    continue
                if capacity is not None:
                    load = sum(t.resource for t in tasks
                               if assignment[t.name] == candidate)
                    if load + task.resource > capacity:
                        continue
                assignment[task.name] = candidate
                cost, _, _ = _cost(tasks, assignment, num_dies, comm_weight,
                                   balance_weight)
                if cost + 1e-12 < base:
                    base = cost
                    improved = True
                else:
                    assignment[task.name] = current
    return assignment


def _ilp_partition(tasks: Sequence[PartitionTask], num_dies: int,
                   capacity: Optional[float], comm_weight: float,
                   balance_weight: float) -> Optional[Dict[str, int]]:
    """Exact ILP via scipy.optimize.milp; returns None if unavailable/too big."""
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_array
    except ImportError:  # pragma: no cover - scipy always ships milp >= 1.9
        return None
    edges = _edges_of(tasks)
    n, d, m = len(tasks), num_dies, len(edges)
    if n * d + m > 400:  # keep the exact solve small; greedy handles the rest
        return None
    if capacity is None:
        # The ILP objective only counts cut edges; balance is enforced by an
        # implicit per-die capacity slightly above an even split.
        total = sum(t.resource for t in tasks)
        capacity = 1.15 * total / num_dies + max(t.resource for t in tasks)

    index = {t.name: i for i, t in enumerate(tasks)}
    total_resource = sum(t.resource for t in tasks) or 1.0
    # Variables: x[i, k] assignment binaries, y[e] cut binaries, and one
    # continuous variable bounding the maximum per-die load (balance term).
    num_x = n * d
    num_vars = num_x + m + 1
    max_load_var = num_vars - 1
    c = np.zeros(num_vars)
    c[num_x:num_x + m] = comm_weight
    c[max_load_var] = balance_weight / total_resource

    # One sparse constraint matrix, rows in blocks: d max-load rows, n
    # one-die rows, m * d cut rows, d capacity rows.  Zero resources are
    # not stored, so the solver sees the nonzeros a dense build gives it.
    resource = np.array([t.resource for t in tasks], dtype=float)
    loaded = np.flatnonzero(resource)
    dies = np.arange(d)
    x_of = np.arange(num_x).reshape(n, d)      # x_of[i, k] = i * d + k
    rows, cols, vals = [], [], []

    def load_rows(first_row: int) -> None:
        # Row first_row + k sums the resources placed on die k.
        rows.append(np.repeat(first_row + dies, len(loaded)))
        cols.append(x_of[loaded].T.ravel())
        vals.append(np.tile(resource[loaded], d))

    # Max-load definition: every die's load is below the bound variable.
    load_rows(0)
    rows.append(dies)
    cols.append(np.full(d, max_load_var))
    vals.append(np.full(d, -1.0))
    # Each task on exactly one die.
    rows.append(np.repeat(d + np.arange(n), d))
    cols.append(x_of.ravel())
    vals.append(np.ones(num_x))
    # Cut indicators: y_e >= x[a,k] - x[b,k] for every die k.
    if m:
        src = np.array([index[a] for a, _ in edges])
        dst = np.array([index[b] for _, b in edges])
        cut_rows = d + n + np.arange(m * d)
        rows += [cut_rows, cut_rows, cut_rows]
        cols += [x_of[src].ravel(), x_of[dst].ravel(),
                 np.repeat(num_x + np.arange(m), d)]
        vals += [np.ones(m * d), np.full(m * d, -1.0), np.full(m * d, -1.0)]
    # Per-die capacity (always present: explicit or implicit above).
    load_rows(d + n + m * d)

    num_rows = d + n + m * d + d
    matrix = csr_array((np.concatenate(vals),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(num_rows, num_vars))
    row_lower = np.concatenate([np.full(d, -np.inf), np.ones(n),
                                np.full(m * d, -np.inf), np.zeros(d)])
    row_upper = np.concatenate([np.zeros(d), np.ones(n), np.zeros(m * d),
                                 np.full(d, capacity)])
    constraints = LinearConstraint(matrix, row_lower, row_upper)

    integrality = np.ones(num_vars)
    integrality[max_load_var] = 0
    upper = np.ones(num_vars)
    upper[max_load_var] = total_resource
    bounds = Bounds(np.zeros(num_vars), upper)
    # mip_rel_gap=0: HiGHS stops at a 1e-4 relative gap by default, which
    # is not "exact" (the qwen prefill block's default-gap answer sits
    # 1.1e-6 above its optimum).
    result = milp(c=c, constraints=constraints, integrality=integrality,
                  bounds=bounds, options={"mip_rel_gap": 0})
    if not result.success or result.x is None:
        return None
    assignment = {}
    for task in tasks:
        i = index[task.name]
        die = int(np.argmax(result.x[i * d:(i + 1) * d]))
        assignment[task.name] = die
    return assignment


def partition_tasks(tasks: Sequence[PartitionTask], num_dies: int,
                    capacity: Optional[float] = None,
                    comm_weight: float = 1.0,
                    balance_weight: float = 4.0,
                    prefer_ilp: bool = True) -> PartitionResult:
    """Assign tasks to dies minimising cut edges and resource imbalance."""
    if num_dies <= 0:
        raise ValueError("num_dies must be positive")
    if not tasks:
        return PartitionResult(num_dies=num_dies, method="empty")
    if num_dies == 1:
        assignment = {t.name: 0 for t in tasks}
        objective, cut, imbalance = _cost(tasks, assignment, 1, comm_weight,
                                          balance_weight)
        return PartitionResult(assignment=assignment, num_dies=1,
                               cut_edges=cut, imbalance=imbalance,
                               objective=objective, method="trivial")

    assignment = None
    method = "greedy"
    if prefer_ilp:
        assignment = _ilp_partition(tasks, num_dies, capacity, comm_weight,
                                    balance_weight)
        if assignment is not None:
            method = "ilp"
    if assignment is None:
        assignment = _greedy_partition(tasks, num_dies, capacity, comm_weight,
                                       balance_weight)
        method = "greedy"

    objective, cut, imbalance = _cost(tasks, assignment, num_dies, comm_weight,
                                      balance_weight)
    return PartitionResult(assignment=assignment, num_dies=num_dies,
                           cut_edges=cut, imbalance=imbalance,
                           objective=objective, method=method)


def partition_graph(graph: DataflowGraph, num_dies: int,
                    capacity: Optional[float] = None) -> PartitionResult:
    """Partition a dataflow graph's kernels across dies and record the result."""
    tasks = []
    for kernel in graph.topological_order():
        preds = tuple(p.name for p in graph.predecessors(kernel))
        resource = max(kernel.local_buffer_bytes(), 1.0)
        tasks.append(PartitionTask(name=kernel.name, resource=resource,
                                   predecessors=preds))
    result = partition_tasks(tasks, num_dies, capacity)
    for kernel in graph.kernels:
        kernel.die_assignment = result.assignment.get(kernel.name, 0)
    graph.attributes["partition"] = result
    return result
