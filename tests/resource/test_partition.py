"""Tests for multi-die graph partitioning."""

import itertools
import random

import pytest

from repro.resource import partition
from repro.resource.partition import (
    PartitionResult,
    PartitionTask,
    partition_graph,
    partition_tasks,
)


def chain_tasks(n=6, resource=10.0):
    tasks = []
    for index in range(n):
        preds = (f"t{index - 1}",) if index else ()
        tasks.append(PartitionTask(f"t{index}", resource, preds))
    return tasks


class TestPartitionTasks:
    def test_single_die_trivial(self):
        result = partition_tasks(chain_tasks(), num_dies=1)
        assert result.method == "trivial"
        assert set(result.assignment.values()) == {0}
        assert result.cut_edges == 0

    def test_every_task_assigned(self):
        result = partition_tasks(chain_tasks(), num_dies=3)
        assert len(result.assignment) == 6
        assert all(0 <= die < 3 for die in result.assignment.values())

    def test_chain_minimises_cuts(self):
        result = partition_tasks(chain_tasks(6), num_dies=2)
        # A pipeline of 6 equal tasks splits into two halves with one cut.
        assert result.cut_edges <= 2
        loads = result.die_loads(chain_tasks(6))
        assert max(loads) <= 2 * min(loads) + 10.0

    def test_capacity_respected_by_greedy(self):
        tasks = chain_tasks(8, resource=10.0)
        result = partition_tasks(tasks, num_dies=4, capacity=25.0, prefer_ilp=False)
        loads = result.die_loads(tasks)
        assert all(load <= 25.0 + 1e-9 for load in loads)

    def test_invalid_num_dies(self):
        with pytest.raises(ValueError):
            partition_tasks(chain_tasks(), num_dies=0)

    def test_empty_tasks(self):
        result = partition_tasks([], num_dies=2)
        assert result.assignment == {}

    def test_ilp_and_greedy_agree_on_small_chain(self):
        tasks = chain_tasks(4)
        ilp = partition_tasks(tasks, num_dies=2, prefer_ilp=True)
        greedy = partition_tasks(tasks, num_dies=2, prefer_ilp=False)
        assert ilp.cut_edges <= greedy.cut_edges
        if ilp.method == "ilp":
            assert ilp.objective <= greedy.objective + 1e-9

    def test_objective_combines_cut_and_imbalance(self):
        tasks = chain_tasks(4)
        result = partition_tasks(tasks, num_dies=2, comm_weight=1.0,
                                 balance_weight=4.0)
        assert result.objective == pytest.approx(
            result.cut_edges + 4.0 * result.imbalance)


def random_dag(seed):
    """A seeded DAG of 2-7 tasks with integer resources, on 2-3 dies."""
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    tasks = [PartitionTask(f"t{i}", float(rng.randint(1, 20)),
                           tuple(f"t{j}" for j in range(i)
                                 if rng.random() < 0.35))
             for i in range(n)]
    return tasks, rng.randint(2, 3), rng


def ilp_objective(tasks, assignment, num_dies, comm, balance):
    """What the ILP minimises: comm * cut + balance * max_load / total."""
    cut = sum(1 for task in tasks for pred in task.predecessors
              if assignment[pred] != assignment[task.name])
    loads = [0.0] * num_dies
    for task in tasks:
        loads[assignment[task.name]] += task.resource
    return comm * cut + balance * max(loads) / sum(loads), max(loads)


class TestIlpExactness:
    """The ILP's assignment is a true optimum of its own objective."""

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_brute_force_minimum(self, seed):
        tasks, num_dies, rng = random_dag(seed)
        total = sum(t.resource for t in tasks)
        largest = max(t.resource for t in tasks)
        # Even seeds use the implicit capacity the ILP adds when none is
        # given; odd seeds a tighter explicit one (still feasible: list
        # scheduling never exceeds total / dies + largest).
        capacity = None if seed % 2 == 0 \
            else total / num_dies + largest * rng.uniform(1.0, 1.2)
        bound = 1.15 * total / num_dies + largest if capacity is None \
            else capacity
        comm, balance = 1.0, 4.0
        result = partition_tasks(tasks, num_dies, capacity=capacity,
                                 comm_weight=comm, balance_weight=balance)
        assert result.method == "ilp"
        value, max_load = ilp_objective(tasks, result.assignment, num_dies,
                                        comm, balance)
        assert max_load <= bound + 1e-9

        best = float("inf")
        for dies in itertools.product(range(num_dies), repeat=len(tasks)):
            assignment = {t.name: die for t, die in zip(tasks, dies)}
            candidate, load = ilp_objective(tasks, assignment, num_dies,
                                            comm, balance)
            if load <= bound + 1e-9:
                best = min(best, candidate)
        assert value == pytest.approx(best, rel=1e-9, abs=1e-12)

    def test_zoo_block_reaches_the_optimum(self, monkeypatch):
        """Regression: HiGHS stops at a 1e-4 relative gap by default, and
        on the Qwen prefill block (seq 256, tiling exploration on, as the
        compile benchmark builds it) that answer was 3.1369775669 against
        the optimum 3.1369764522."""
        from repro import (
            MODEL_CONFIGS,
            CompilerOptions,
            StreamTensorCompiler,
            build_prefill_block,
        )

        captured = []

        def capture(tasks, num_dies, capacity=None, **kwargs):
            result = partition_tasks(tasks, num_dies, capacity, **kwargs)
            captured.append((tasks, result))
            return result

        monkeypatch.setattr(partition, "partition_tasks", capture)
        config = MODEL_CONFIGS["qwen"]
        StreamTensorCompiler(CompilerOptions(explore_tiling=True)).compile(
            build_prefill_block(config, 256), config)
        (tasks, result), = captured
        assert result.method == "ilp"
        value, _ = ilp_objective(tasks, result.assignment, result.num_dies,
                                 1.0, 4.0)
        assert value == pytest.approx(3.1369764522, rel=0, abs=1e-10)


class TestPartitionGraph:
    def test_compiled_graph_partition(self, gpt2_compiled):
        result = gpt2_compiled.partition
        graph = gpt2_compiled.dataflow_graph
        assert result is not None
        assert len(result.assignment) == len(graph.kernels)
        for kernel in graph.kernels:
            assert kernel.die_assignment is not None
            assert 0 <= kernel.die_assignment < result.num_dies

    def test_partition_graph_two_dies(self, gpt2_compiled):
        graph = gpt2_compiled.dataflow_graph
        result = partition_graph(graph, num_dies=2)
        assert result.num_dies == 2
        assert set(result.assignment.values()) <= {0, 1}
