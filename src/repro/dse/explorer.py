"""Black-box exploration of the Linalg tiling hyperparameters (Section 5.1).

The paper drives ``default_tile_size`` and ``overall_unroll_size`` with
Optuna, using feedback from the dataflow kernel-fusion results.  Offline we
provide a small self-contained black-box optimiser with the same interface
shape: a *study* samples *trials* from the search space, evaluates a
user-provided objective, and keeps the best configuration.

The sampler combines a deterministic coarse grid (so small budgets still
cover the space) with seeded uniform random samples that fill the budget —
the role Optuna's sampler plays in the paper's flow.  Every candidate is
drawn before any is evaluated.

Evaluating a trial is the expensive part (for the tiling study: a
Linalg-to-dataflow conversion and kernel fusion), so the study prunes, as
Optuna does, every trial that can no longer win.  Each candidate comes with
a lower bound of its objective; candidates are evaluated best-first in
``(bound, candidate number)`` order, and the study stops evaluating at the
first one whose ``(bound, number)`` is not below the incumbent's
``(objective, number)``.  That candidate can neither beat the incumbent nor
win a tie (the first minimum in candidate order wins), and neither can any
candidate after it.  The best trial is therefore exactly that of evaluating
every candidate; the pruned ones stay in the study, marked ``pruned``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dse.permutation import apply_permutation_heuristic
from repro.dse.tiling_space import TilingSpace
from repro.dse.unrolling import intensity_driven_unrolling
from repro.ir.graph import Graph


@dataclass
class Trial:
    """One point of the hyperparameter space, evaluated or pruned.

    ``number`` is the point's position in the study's candidate list, the
    order ties are broken in.  A pruned trial was never evaluated: its
    ``objective`` is the lower bound that ruled it out and its
    ``feedback`` is empty.
    """

    params: Dict[str, int]
    objective: float
    feedback: Dict[str, float] = field(default_factory=dict)
    number: int = 0
    pruned: bool = False


@dataclass
class StudyResult:
    """Outcome of a black-box exploration run, trials in evaluation order."""

    trials: List[Trial] = field(default_factory=list)

    @property
    def best_index(self) -> int:
        """Position of the best trial: the evaluated one with the least
        objective, ties going to the lowest candidate number."""
        evaluated = [i for i, trial in enumerate(self.trials)
                     if not trial.pruned]
        if not evaluated:
            raise ValueError("the study has no completed trials")
        return min(evaluated, key=lambda i: (self.trials[i].objective,
                                             self.trials[i].number))

    @property
    def best_trial(self) -> Trial:
        return self.trials[self.best_index]

    @property
    def best_params(self) -> Dict[str, int]:
        return self.best_trial.params


class BlackBoxOptimizer:
    """A minimal Optuna-like optimiser over integer power-of-two parameters.

    Args:
        search_space: Mapping from parameter name to candidate values.
        seed: Seed for the random refinement phase (deterministic runs).
    """

    def __init__(self, search_space: Dict[str, Sequence[int]], seed: int = 0) -> None:
        if not search_space:
            raise ValueError("the search space must not be empty")
        self.search_space = {k: list(v) for k, v in search_space.items()}
        self._rng = random.Random(seed)

    def _grid(self, budget: int) -> List[Dict[str, int]]:
        """A coarse grid covering extreme and middle values of each axis."""
        names = list(self.search_space)
        picks: List[Dict[str, int]] = []
        anchor_indices = [0, -1, None]  # low, high, middle
        for anchor in anchor_indices:
            point = {}
            for name in names:
                values = self.search_space[name]
                if anchor is None:
                    point[name] = values[len(values) // 2]
                else:
                    point[name] = values[anchor]
            picks.append(point)
        return picks[:budget]

    def _random_point(self) -> Dict[str, int]:
        return {name: self._rng.choice(values)
                for name, values in self.search_space.items()}

    def _space_size(self) -> int:
        size = 1
        for values in self.search_space.values():
            size *= len(values)
        return size

    def _exhaustive(self) -> List[Dict[str, int]]:
        import itertools

        names = list(self.search_space)
        points = []
        for combo in itertools.product(*(self.search_space[n] for n in names)):
            points.append(dict(zip(names, combo)))
        return points

    def candidates(self, n_trials: int) -> List[Dict[str, int]]:
        """The study's distinct points, numbered by their position.

        Small search spaces are enumerated exhaustively; larger spaces use
        the coarse grid anchors followed by unique random samples.  Grid
        anchors that coincide count against the budget once each and are
        kept once, so fewer than ``n_trials`` points may come back.
        """
        if self._space_size() <= n_trials:
            points = self._exhaustive()
        else:
            points = self._grid(n_trials)
            keys = {tuple(sorted(c.items())) for c in points}
            attempts = 0
            while len(points) < n_trials and attempts < 50 * n_trials:
                attempts += 1
                point = self._random_point()
                key = tuple(sorted(point.items()))
                if key not in keys:
                    keys.add(key)
                    points.append(point)

        distinct: List[Dict[str, int]] = []
        seen = set()
        for params in points[:n_trials]:
            key = tuple(sorted(params.items()))
            if key not in seen:
                seen.add(key)
                distinct.append(params)
        return distinct

    def optimize(self, objective: Callable[[Dict[str, int]], Tuple[float, Dict[str, float]]],
                 bound: Callable[[Dict[str, int]], float],
                 n_trials: int = 12) -> StudyResult:
        """Run the study best-first, pruning the trials that cannot win.

        Every candidate's bound is taken first.  Candidates are then
        evaluated in ``(bound, number)`` order until one's ``(bound,
        number)`` is not below the incumbent's ``(objective, number)``;
        it and every later candidate are kept as pruned trials.

        Args:
            objective: Callable returning ``(objective_value, feedback)`` for
                a parameter assignment; lower objective is better.
            bound: Callable returning a lower bound of a parameter
                assignment's objective value.  A bound above the objective
                can prune the true best trial.
            n_trials: Total evaluation budget.
        """
        candidates = self.candidates(n_trials)
        bounds = [bound(params) for params in candidates]
        order = sorted(range(len(candidates)), key=lambda i: (bounds[i], i))
        result = StudyResult()
        incumbent = (math.inf, len(candidates))
        for number in order:
            params = candidates[number]
            # ``order`` only rises and the incumbent only falls, so once
            # a candidate is pruned every later one is too.
            if (bounds[number], number) < incumbent:
                value, feedback = objective(params)
                result.trials.append(Trial(params, value, feedback, number))
                incumbent = min(incumbent, (value, number))
            else:
                result.trials.append(Trial(params, bounds[number],
                                           number=number, pruned=True))
        return result


def default_search_space(max_tile: int = 64, max_unroll: int = 256) -> Dict[str, List[int]]:
    """Power-of-two grids for the two tiling-space hyperparameters."""
    tiles = [t for t in (4, 8, 16, 32, 64, 128) if t <= max_tile]
    unrolls = [u for u in (8, 16, 32, 64, 128, 256, 512) if u <= max_unroll]
    return {"default_tile_size": tiles or [4],
            "overall_unroll_size": unrolls or [8]}


def build_tiling_space(graph: Graph, default_tile_size: int,
                       overall_unroll_size: int) -> TilingSpace:
    """Construct and fully populate a tiling space for given hyperparameters.

    Runs the three per-kernel heuristics in the paper's order: naive tiling,
    intensity-driven unrolling, then the permutation heuristic.
    """
    return _populate(TilingSpace.from_graph(
        graph, default_tile_size=default_tile_size,
        overall_unroll_size=overall_unroll_size))


def _populate(space: TilingSpace) -> TilingSpace:
    space.apply_naive_tiling()
    intensity_driven_unrolling(space)
    apply_permutation_heuristic(space)
    return space


def explore_tiling_space(graph: Graph,
                         fusion_feedback: Callable[[TilingSpace], Dict[str, float]],
                         search_space: Optional[Dict[str, Sequence[int]]] = None,
                         n_trials: int = 9,
                         memory_budget_bytes: float = 41e6,
                         seed: int = 0) -> Tuple[TilingSpace, StudyResult]:
    """Explore the tiling hyperparameters with fusion feedback.

    The objective is the pipeline latency estimate, heavily penalised when
    the fused design's converter memory exceeds the on-chip budget (the case
    the paper feeds back to the tiling space for refinement).

    Each op's loop bounds are inferred once for the whole study, and every
    candidate's space is built and populated over them before any feedback
    is asked for.  The penalty is never negative, so a space's own
    ``total_latency_estimate()`` bounds its objective from below without a
    conversion.  ``fusion_feedback`` is called in ``(bound, candidate
    number)`` order and no more once a candidate's ``(bound, number)`` is
    not below the best ``(objective, number)`` so far: such a candidate can
    neither beat that trial nor win a tie, since the first minimum in
    candidate order wins.  The returned space is therefore exactly that of
    evaluating every candidate; only losing layouts go unconverted.  Each
    pruned trial stays in the study with its bound as its objective, empty
    feedback and ``pruned`` set.

    Args:
        graph: Linalg graph to tile.
        fusion_feedback: Callable evaluating a candidate tiling space and
            returning at least ``{"converter_bytes": ...}``.  It must not
            mutate the space: the best trial's space is returned as it was
            evaluated.
        search_space: Optional custom hyperparameter grid.
        n_trials: Exploration budget.
        memory_budget_bytes: On-chip memory budget used in the penalty;
            must be positive.
        seed: RNG seed.

    Returns:
        The best trial's own tiling space (the first candidate with the
        least objective), and the study result, trials in evaluation order.
    """
    if memory_budget_bytes <= 0:
        raise ValueError(
            f"memory_budget_bytes must be positive, got {memory_budget_bytes}")
    space_grid = search_space or default_search_space()
    optimizer = BlackBoxOptimizer(space_grid, seed=seed)
    base = TilingSpace.from_graph(graph)
    spaces: Dict[Tuple[int, int], TilingSpace] = {}

    def key(params: Dict[str, int]) -> Tuple[int, int]:
        return params["default_tile_size"], params["overall_unroll_size"]

    def bound(params: Dict[str, int]) -> float:
        space = spaces[key(params)] = _populate(base.fresh(*key(params)))
        return space.total_latency_estimate()

    def objective(params: Dict[str, int]) -> Tuple[float, Dict[str, float]]:
        space = spaces[key(params)]
        feedback = fusion_feedback(space)
        latency = space.total_latency_estimate()
        converter_bytes = feedback.get("converter_bytes", 0.0)
        penalty = 0.0
        if converter_bytes > memory_budget_bytes:
            penalty = latency * (converter_bytes / memory_budget_bytes)
        return latency + penalty, feedback

    study = optimizer.optimize(objective, bound, n_trials=n_trials)
    return spaces[key(study.best_params)], study
