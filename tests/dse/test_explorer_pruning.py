"""Pruned tiling exploration finds exactly what evaluating every trial finds.

A seeded sweep of random graphs, search spaces, trial budgets and memory
budgets, each explored with synthetic converter-byte feedback and compared
with an exhaustive loop that lives only here.  The feedback puts the
lowest-bound trial over budget in about half of the cases, and some cases
are built so that an earlier candidate ties the incumbent exactly, which
only the candidate-number tie rule settles.
"""

import math
import random

import pytest

from repro.dse.explorer import (
    BlackBoxOptimizer,
    build_tiling_space,
    explore_tiling_space,
)
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8

CASES = 240
DIMS = (4, 8, 16, 32, 64, 128)
TILES = (4, 8, 16, 32, 64, 128)
UNROLLS = (8, 16, 32, 64, 128, 256, 512)
#: Converter bytes as a multiple of the budget; above 1 is penalised.
RATIOS = (0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 10.0)


def key(params):
    return params["default_tile_size"], params["overall_unroll_size"]


def random_graph(rng):
    """A chain of 1-4 matmuls and elementwise ops over random dims."""
    builder = GraphBuilder("net")
    rows, cols = rng.choice(DIMS), rng.choice(DIMS)
    value = builder.input((rows, cols), INT8)
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.6:
            out = rng.choice(DIMS)
            value = builder.matmul(value, builder.weight((cols, out), INT8))
            cols = out
        else:
            value = rng.choice([builder.gelu, builder.silu])(value)
    builder.output(value)
    return builder.build()


def objective(latency, converter_bytes, budget):
    if converter_bytes > budget:
        return latency + latency * (converter_bytes / budget)
    return latency


def converter_bytes_reaching(latency, target, budget):
    """Converter bytes that make ``latency``'s objective exactly
    ``target``, or ``None`` when no float gets there."""
    converter_bytes = budget * (target - latency) / latency
    for _ in range(64):
        value = objective(latency, converter_bytes, budget)
        if value == target:
            return converter_bytes
        converter_bytes = math.nextafter(
            converter_bytes, math.inf if value < target else -math.inf)
    return None


def make_case(seed):
    """One random study and the exhaustive evaluation of its candidates."""
    rng = random.Random(seed)
    graph = random_graph(rng)
    search_space = {
        "default_tile_size": sorted(rng.sample(TILES, rng.randint(1, 4))),
        "overall_unroll_size": sorted(rng.sample(UNROLLS, rng.randint(1, 4))),
    }
    n_trials = rng.randint(1, 12)
    budget = float(2 ** rng.randint(8, 24))
    explorer_seed = rng.randrange(1000)

    candidates = BlackBoxOptimizer(search_space,
                                   seed=explorer_seed).candidates(n_trials)
    spaces = [build_tiling_space(graph, *key(params)) for params in candidates]
    bounds = [space.total_latency_estimate() for space in spaces]
    converter_bytes = [budget * rng.choice(RATIOS) for _ in candidates]
    order = sorted(range(len(candidates)), key=lambda i: (bounds[i], i))
    first = order[0]
    tied = False
    if rng.random() < 0.5:
        # The lowest bound goes over budget.
        converter_bytes[first] = budget * rng.choice((1.5, 3.0, 10.0))
    if rng.random() < 0.5:
        # An earlier candidate whose bound equals the first trial's
        # penalised objective must still be evaluated, and wins the tie.
        later = [i for i in order
                 if i < first and bounds[i] > 2 * bounds[first]]
        if later:
            winner = later[0]
            tie = converter_bytes_reaching(bounds[first], bounds[winner],
                                           budget)
            if tie is not None:
                tied = True
                converter_bytes[first] = tie
                converter_bytes[winner] = 0.0
                for i in order[1:order.index(winner)]:
                    converter_bytes[i] = budget * (
                        bounds[winner] / bounds[i] + 1)
    objectives = [objective(bound, cb, budget)
                  for bound, cb in zip(bounds, converter_bytes)]
    return dict(graph=graph, search_space=search_space, n_trials=n_trials,
                budget=budget, seed=explorer_seed, candidates=candidates,
                spaces=spaces, bounds=bounds, objectives=objectives,
                converter_bytes=converter_bytes, tied=tied)


def must_evaluate(bounds, objectives):
    """The candidates no bound rules out: in ``(bound, number)`` order,
    each one none of whose predecessors has an ``(objective, number)`` at
    or below its ``(bound, number)``."""
    order = sorted(range(len(bounds)), key=lambda i: (bounds[i], i))
    return [c for position, c in enumerate(order)
            if all((bounds[c], c) < (objectives[d], d)
                   for d in order[:position])]


def explore(case):
    by_params = {key(params): {"converter_bytes": cb}
                 for params, cb in zip(case["candidates"],
                                       case["converter_bytes"])}
    evaluated = []

    def feedback(space):
        evaluated.append(space)
        return dict(by_params[(space.default_tile_size,
                               space.overall_unroll_size)])

    best, study = explore_tiling_space(
        case["graph"], feedback, search_space=case["search_space"],
        n_trials=case["n_trials"], memory_budget_bytes=case["budget"],
        seed=case["seed"])
    return best, study, evaluated


@pytest.mark.parametrize("seed", range(CASES))
def test_pruned_study_equals_the_exhaustive_one(seed):
    case = make_case(seed)
    bounds, objectives = case["bounds"], case["objectives"]
    best, study, evaluated = explore(case)

    # The winner: the first minimum of the exhaustive loop.
    first_minimum = min(range(len(objectives)), key=objectives.__getitem__)
    assert study.best_trial.number == first_minimum
    assert study.best_params == case["candidates"][first_minimum]
    assert best is evaluated[study.best_index]
    assert best.layout() == case["spaces"][first_minimum].layout()
    assert best.to_configs() == case["spaces"][first_minimum].to_configs()

    # Every candidate once, in (bound, number) order.
    numbers = [trial.number for trial in study.trials]
    assert numbers == sorted(range(len(bounds)), key=lambda i: (bounds[i], i))
    for trial in study.trials:
        assert trial.params == case["candidates"][trial.number]
        if trial.pruned:
            assert trial.objective == bounds[trial.number]
            assert trial.feedback == {}
        else:
            assert trial.objective == objectives[trial.number]
            assert trial.feedback == {
                "converter_bytes": case["converter_bytes"][trial.number]}

    # Exactly the candidates that can still win are evaluated, each once.
    expected = must_evaluate(bounds, objectives)
    assert [t.number for t in study.trials if not t.pruned] == expected
    assert len(evaluated) == len(expected)


def test_the_sweep_reaches_every_pruning_situation():
    """Over budget at the lowest bound, equal bounds at different numbers,
    exact ties settled by the candidate number, and pruning at all."""
    over_budget = equal_bounds = tie_settled = pruned = 0
    for seed in range(CASES):
        case = make_case(seed)
        bounds, objectives = case["bounds"], case["objectives"]
        first = min(range(len(bounds)), key=lambda i: (bounds[i], i))
        over_budget += case["converter_bytes"][first] > case["budget"]
        equal_bounds += len(set(bounds)) < len(bounds)
        first_minimum = min(range(len(objectives)), key=objectives.__getitem__)
        tie_settled += case["tied"] and first_minimum != first \
            and objectives[first] == objectives[first_minimum]
        pruned += len(must_evaluate(bounds, objectives)) < len(bounds)
    assert over_budget >= CASES // 4
    assert equal_bounds >= CASES // 4
    assert tie_settled >= CASES // 20
    assert pruned >= CASES // 2
