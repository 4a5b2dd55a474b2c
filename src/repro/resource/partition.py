"""Multi-die graph partitioning (Section 5.3, item 2).

Large FPGAs (e.g. the AMD U55C) are built from several dies (SLRs) connected
by a limited number of super-long-lines; placing tightly-connected tasks on
different dies hurts routing congestion and clock frequency.  StreamTensor
assigns tasks to dies with an ILP whose objective balances two terms:

* inter-die communication — the number (and width) of stream edges crossing
  a die boundary;
* resource imbalance — the spread of per-die resource utilisation.

We formulate the same 0/1 assignment problem: minimise ``comm * cut +
balance * max_load / total`` with every die's load under a capacity.  While
``tasks * dies + edges <= 400`` it is solved exactly by a branch and bound
over canonical die labels (the first task on die 0, dies opened in order),
so equal inputs always get the same labels and a two-die design lands on
dies 0 and 1.  Beyond that a deterministic greedy refinement
(Kernighan-Lin style single moves) gives a good solution under the same
cost function, so downstream consumers see the same interface either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    """Exact optimum of the ILP by branch and bound; None if too big or
    infeasible.

    Tasks are placed in the given order and labelled as a restricted-growth
    string: a task may join any die already used or open the next unused
    one, so each die grouping is visited once, not once per relabelling.  A
    partial placement is pruned when ``comm * cut_so_far + balance *
    max(max_load_so_far, total / dies) / total`` cannot beat the best
    complete one, and only a strictly better placement replaces the best,
    so the answer is the first optimum in this order.
    """
    edges = _edges_of(tasks)
    n, d, m = len(tasks), num_dies, len(edges)
    if n * d + m > 400:  # keep the exact solve small; greedy handles the rest
        return None
    resource = [t.resource for t in tasks]
    total = sum(resource)
    if capacity is None:
        # The objective only rewards balance through the maximum load; an
        # implicit per-die capacity slightly above an even split enforces it.
        capacity = 1.15 * total / d + max(resource)
    scale = balance_weight / (total or 1.0)
    even = total / d
    # An edge is cut or not once both ends are placed: at its later end.
    index = {t.name: i for i, t in enumerate(tasks)}
    earlier: List[List[int]] = [[] for _ in tasks]
    for a, b in edges:
        i, j = sorted((index[a], index[b]))
        if i != j:
            earlier[j].append(i)

    labels = [0] * n
    loads = [0.0] * d
    best: Optional[List[int]] = None
    best_value = math.inf

    def place(i: int, opened: int, cut: int, max_load: float) -> None:
        nonlocal best, best_value
        same = [0] * d
        for j in earlier[i]:
            same[labels[j]] += 1
        for die in range(min(opened + 1, d)):
            load = loads[die] + resource[i]
            if load > capacity:
                continue
            new_cut = cut + len(earlier[i]) - same[die]
            new_max = max(max_load, load)
            labels[i] = die
            if i == n - 1:
                value = comm_weight * new_cut + scale * new_max
                if value < best_value:
                    best, best_value = list(labels), value
            elif comm_weight * new_cut + scale * max(new_max, even) \
                    < best_value:
                previous, loads[die] = loads[die], load
                place(i + 1, max(opened, die + 1), new_cut, new_max)
                loads[die] = previous

    place(0, 0, 0, 0.0)
    if best is None:
        return None
    return {task.name: die for task, die in zip(tasks, best)}


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
    """Partition a dataflow graph's kernels across dies.

    Each kernel's ``die_assignment`` is set in place; the full result is
    returned.
    """
    tasks = []
    for kernel in graph.topological_order():
        preds = tuple(p.name for p in graph.predecessors(kernel))
        resource = max(kernel.local_buffer_bytes(), 1.0)
        tasks.append(PartitionTask(name=kernel.name, resource=resource,
                                   predecessors=preds))
    result = partition_tasks(tasks, num_dies, capacity)
    for kernel in graph.kernels:
        kernel.die_assignment = result.assignment.get(kernel.name, 0)
    return result
