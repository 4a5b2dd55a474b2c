"""Tests for the black-box tiling-space explorer."""

import pytest

from repro.dse.explorer import (
    BlackBoxOptimizer,
    StudyResult,
    Trial,
    build_tiling_space,
    default_search_space,
    explore_tiling_space,
)
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8


def small_graph():
    builder = GraphBuilder("net")
    x = builder.input((64, 64), INT8)
    w = builder.weight((64, 64), INT8)
    builder.output(builder.gelu(builder.matmul(x, w)))
    return builder.build()


class TestBlackBoxOptimizer:
    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            BlackBoxOptimizer({})

    def test_finds_known_minimum(self):
        space = {"x": [1, 2, 4, 8, 16], "y": [1, 2, 4]}
        optimizer = BlackBoxOptimizer(space, seed=3)

        def objective(params):
            return (params["x"] - 4) ** 2 + params["y"], {}

        result = optimizer.optimize(objective, lambda params: params["y"],
                                    n_trials=15)
        assert result.best_params["x"] == 4
        assert result.best_params["y"] == 1

    def test_deterministic_given_seed(self):
        space = {"x": [1, 2, 3, 4, 5, 6, 7, 8]}

        def objective(params):
            return float(params["x"]), {}

        def bound(params):
            return 0.0

        first = BlackBoxOptimizer(space, seed=7).optimize(objective, bound,
                                                          n_trials=5)
        second = BlackBoxOptimizer(space, seed=7).optimize(objective, bound,
                                                           n_trials=5)
        assert [t.params for t in first.trials] == [t.params for t in second.trials]

    def test_candidates_are_distinct_and_within_budget(self):
        # One value per axis: the three grid anchors coincide.
        optimizer = BlackBoxOptimizer({"x": [2], "y": [3]})
        assert optimizer.candidates(5) == [{"x": 2, "y": 3}]
        points = BlackBoxOptimizer({"x": list(range(10))}, seed=1).candidates(6)
        assert len(points) == 6
        assert len({p["x"] for p in points}) == 6
        assert points[:3] == [{"x": 0}, {"x": 9}, {"x": 5}]

    def test_evaluates_best_first_and_prunes_what_cannot_win(self):
        space = {"x": [0, 1, 2, 3, 4]}
        objectives = {0: 9.0, 1: 5.0, 2: 4.0, 3: 6.0, 4: 7.0}
        bounds = {0: 8.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}
        calls = []

        def objective(params):
            calls.append(params["x"])
            return objectives[params["x"]], {"x": params["x"]}

        study = BlackBoxOptimizer(space).optimize(
            objective, lambda params: bounds[params["x"]], n_trials=5)
        # Bound order 4, 1, 2, 3, 0; after 2 the incumbent is 4.0, which
        # 3's bound (4.0, later candidate) cannot beat.
        assert calls == [4, 1, 2]
        assert [t.number for t in study.trials] == [4, 1, 2, 3, 0]
        assert [t.pruned for t in study.trials] == [False] * 3 + [True] * 2
        assert [t.objective for t in study.trials] == [7.0, 5.0, 4.0, 4.0, 8.0]
        assert [t.feedback for t in study.trials[3:]] == [{}, {}]
        assert study.best_params == {"x": 2}

    def test_equal_bound_of_an_earlier_candidate_is_evaluated(self):
        # Candidate 1 reaches its bound first (incumbent 3.0 at number 2),
        # candidate 0 ties it and wins as the earlier candidate; candidate
        # 3, with the same bound but a later number, cannot.
        space = {"x": [0, 1, 2, 3]}
        objectives = {0: 3.0, 1: 5.0, 2: 3.0, 3: 3.0}
        bounds = {0: 3.0, 1: 1.0, 2: 2.0, 3: 3.0}
        calls = []

        def objective(params):
            calls.append(params["x"])
            return objectives[params["x"]], {}

        study = BlackBoxOptimizer(space).optimize(
            objective, lambda params: bounds[params["x"]], n_trials=4)
        assert calls == [1, 2, 0]
        assert study.best_params == {"x": 0}
        assert study.trials[-1].number == 3 and study.trials[-1].pruned

    def test_no_trials_raises_on_best(self):
        with pytest.raises(ValueError):
            StudyResult().best_trial

    def test_best_is_the_first_least_objective(self):
        study = StudyResult([Trial({"x": x}, objective)
                             for x, objective in enumerate([3.0, 1.0, 2.0, 1.0])])
        assert study.best_index == 1
        assert study.best_trial is study.trials[1]

    def test_best_breaks_ties_by_candidate_number_among_evaluated(self):
        study = StudyResult([
            Trial({"x": 3}, 1.0, number=3),
            Trial({"x": 1}, 1.0, number=1),
            Trial({"x": 0}, 0.5, number=0, pruned=True),
        ])
        assert study.best_index == 1

    def test_only_pruned_trials_raise_on_best(self):
        with pytest.raises(ValueError):
            StudyResult([Trial({"x": 0}, 1.0, pruned=True)]).best_trial


class TestSearchSpace:
    def test_default_space_has_both_axes(self):
        space = default_search_space()
        assert "default_tile_size" in space
        assert "overall_unroll_size" in space

    def test_limits_respected(self):
        space = default_search_space(max_tile=16, max_unroll=32)
        assert max(space["default_tile_size"]) <= 16
        assert max(space["overall_unroll_size"]) <= 32


class TestBuildTilingSpace:
    def test_full_population(self):
        space = build_tiling_space(small_graph(), 16, 64)
        for node in space.nodes:
            assert node.tile_sizes
            assert node.unroll_factor >= 1
            assert node.tile_loop_order is not None

    def test_unroll_budget_respected(self):
        space = build_tiling_space(small_graph(), 16, 32)
        assert space.total_unroll() <= 32


class TestExploreTilingSpace:
    def test_exploration_returns_best_space_and_study(self):
        graph = small_graph()

        def feedback(space):
            return {"converter_bytes": 0.0}

        best, study = explore_tiling_space(graph, feedback, n_trials=4, seed=1)
        assert best.nodes
        assert len(study.trials) >= 3
        assert study.best_trial.objective <= max(t.objective for t in study.trials)

    def test_memory_penalty_steers_away_from_overflow(self):
        graph = small_graph()

        def feedback(space):
            # Pretend large tiles blow the converter budget.
            over = space.default_tile_size >= 64
            return {"converter_bytes": 1e9 if over else 1e3}

        best, _study = explore_tiling_space(graph, feedback, n_trials=6,
                                            memory_budget_bytes=1e6, seed=0)
        assert best.default_tile_size < 64

    def test_non_positive_memory_budget_rejected(self):
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            explore_tiling_space(small_graph(), lambda space: {},
                                 memory_budget_bytes=0.0)

    def test_returns_the_best_trials_own_space(self):
        evaluated = []

        def feedback(space):
            evaluated.append(space)
            return {"converter_bytes": 0.0}

        best, study = explore_tiling_space(small_graph(), feedback,
                                           n_trials=6, seed=0)
        assert len(study.trials) == 6
        # The lowest bound is under budget and wins: nothing else is
        # evaluated, and the pruned trials follow in bound order.
        assert len(evaluated) == 1
        assert [t.pruned for t in study.trials] == [False] + [True] * 5
        assert all(t.feedback == {} for t in study.trials[1:])
        bounds = [t.objective for t in study.trials]
        assert bounds == sorted(bounds)
        assert best is evaluated[study.best_index]
        assert (best.default_tile_size, best.overall_unroll_size) == (
            study.best_params["default_tile_size"],
            study.best_params["overall_unroll_size"])

    def test_tie_keeps_the_first_minimum(self):
        # Tiles of 64 and 128 both clamp to the 64-wide loops: two equal
        # spaces, two equal objectives.
        evaluated = []

        def feedback(space):
            evaluated.append(space)
            return {"converter_bytes": 0.0}

        best, study = explore_tiling_space(
            small_graph(), feedback,
            search_space={"default_tile_size": [64, 128],
                          "overall_unroll_size": [32]}, n_trials=2)
        assert study.trials[0].objective == study.trials[1].objective
        assert best is evaluated[0]
        assert study.best_params["default_tile_size"] == 64
