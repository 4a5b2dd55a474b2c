"""The tiling exploration converts only the layouts that can still win.

Every candidate's space is populated first, and its own latency estimate
bounds its objective from below.  Trials are evaluated best-first by that
bound and the rest are pruned; trials whose spaces share a layout (each
op's tile sizes and tile-loop order) share one converted and fused graph,
and the winner's graph is the one Stage 3 continues with.  The tests hold
that neither changes what the study finds: each evaluated trial's feedback
equals a fresh conversion of its own space, a full evaluation of every
trial reproduces the study recorded before trials were pruned or shared
their conversions, and the pruned study matches it on every row.
"""

import collections
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import LLAMA, CompilerOptions, StreamTensorCompiler, build_prefill_block
from repro.compiler import pipeline
from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.fusion import fuse_kernels
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8
from repro.ir.ops import LinalgOp

#: (default_tile_size, overall_unroll_size, objective, converter_bytes,
#: stream_edges) of every trial, in candidate order, recorded by compiling
#: each block before trials shared their conversions or were pruned.
PINNED_STUDIES = {
    ('gpt2', 'prefill'): [
        (4, 8, 2628293193.142857, 2148352.0, 14.0),
        (64, 256, 49794876.952380955, 3407872.0, 14.0),
        (16, 64, 202787108.57142857, 2424832.0, 14.0),
        (32, 64, 202787108.57142857, 2752512.0, 14.0),
        (4, 32, 404113700.57142854, 2148352.0, 14.0),
        (64, 64, 202787108.57142857, 3407872.0, 14.0),
    ],
    ('gpt2', 'decode'): [
        (4, 8, 10209499.42857143, 19456.0, 14.0),
        (64, 256, 184619.22077922078, 18432.0, 14.0),
        (16, 64, 734866.2857142857, 22528.0, 14.0),
        (32, 64, 734866.2857142857, 22528.0, 14.0),
        (4, 32, 1521298.2857142857, 19456.0, 14.0),
        (64, 64, 734866.2857142857, 18432.0, 14.0),
    ],
    ('qwen', 'prefill'): [
        (4, 8, 2694848030.117647, 1893376.0, 18.0),
        (64, 256, 51249152.0, 3260416.0, 18.0),
        (16, 64, 275659836.2352941, 2191360.0, 18.0),
        (32, 64, 275659836.2352941, 2547712.0, 18.0),
        (4, 32, 698647170.509804, 1893376.0, 18.0),
        (64, 64, 275659836.2352941, 3260416.0, 18.0),
    ],
    ('qwen', 'decode'): [
        (4, 8, 10485481.411764706, 20992.0, 18.0),
        (64, 256, 198907.7761836442, 20480.0, 18.0),
        (16, 64, 1035527.5294117647, 24064.0, 18.0),
        (32, 64, 1035527.5294117647, 24064.0, 18.0),
        (4, 32, 2687821.8039215687, 20992.0, 18.0),
        (64, 64, 1035527.5294117647, 20480.0, 18.0),
    ],
    ('llama', 'prefill'): [
        (4, 8, 7264889193.411764, 4313088.0, 18.0),
        (64, 256, 195266439.52941176, 6750208.0, 18.0),
        (16, 64, 736907344.3137255, 4833280.0, 18.0),
        (32, 64, 736907344.3137255, 5472256.0, 18.0),
        (4, 32, 1884337332.7058823, 4313088.0, 18.0),
        (64, 64, 736907344.3137255, 6750208.0, 18.0),
    ],
    ('llama', 'decode'): [
        (4, 8, 28284144.94117647, 39936.0, 18.0),
        (64, 256, 714691.7647058824, 35840.0, 18.0),
        (16, 64, 2784215.843137255, 44032.0, 18.0),
        (32, 64, 2784215.843137255, 44032.0, 18.0),
        (4, 32, 7266364.235294118, 39936.0, 18.0),
        (64, 64, 2784215.843137255, 35840.0, 18.0),
    ],
    ('gemma', 'prefill'): [
        (4, 8, 4914551386.3529415, 2450432.0, 18.0),
        (64, 256, 89513502.11764705, 3817472.0, 18.0),
        (16, 64, 462976180.7058824, 2723840.0, 18.0),
        (32, 64, 462976180.7058824, 3088384.0, 18.0),
        (4, 32, 1267357334.5882354, 2450432.0, 18.0),
        (64, 64, 462976180.7058824, 3817472.0, 18.0),
    ],
    ('gemma', 'decode'): [
        (4, 8, 19145197.17647059, 30464.0, 18.0),
        (64, 256, 348435.4027149321, 28160.0, 18.0),
        (16, 64, 1756231.5294117648, 30464.0, 18.0),
        (32, 64, 1756231.5294117648, 30464.0, 18.0),
        (4, 32, 4898345.411764706, 30464.0, 18.0),
        (64, 64, 1756231.5294117648, 28160.0, 18.0),
    ],
}

BLOCKS = sorted(PINNED_STUDIES)


def objective(latency, converter_bytes, budget):
    """The study's objective, written out independently of the explorer."""
    if converter_bytes > budget:
        return latency + latency * (converter_bytes / budget)
    return latency


@pytest.mark.parametrize("block", BLOCKS)
def test_study_matches_pinned(zoo_explorations, block):
    recorded = zoo_explorations[block]
    study = recorded["study"]
    pinned = PINNED_STUDIES[block]
    assert sorted(t.number for t in study.trials) == list(range(len(pinned)))
    # Only the lowest bound, (64, 256), is evaluated.
    assert [t.pruned for t in study.trials] == [False] + [True] * 5
    for trial in study.trials:
        tile, unroll, value, converter_bytes, stream_edges = pinned[trial.number]
        assert trial.params == {"default_tile_size": tile,
                                "overall_unroll_size": unroll}
        space, _feedback = recorded["trials"][trial.number]
        if trial.pruned:
            assert trial.feedback == {}
            assert trial.objective == space.total_latency_estimate()
            # No pinned row is over budget, so every bound is exact.
            assert trial.objective == value
        else:
            assert (trial.objective, trial.feedback["converter_bytes"],
                    trial.feedback["stream_edges"]) == (
                value, converter_bytes, stream_edges)
    assert study.best_params == {"default_tile_size": 64,
                                 "overall_unroll_size": 256}


@pytest.mark.parametrize("block", BLOCKS)
def test_full_evaluation_reproduces_the_pinned_study(zoo_explorations, block):
    """Converting and fusing every trial's space, pruned or not, gives
    each pinned row, and the first minimum of the rows is the winner."""
    recorded = zoo_explorations[block]
    graph = recorded["compiled"].linalg_graph
    c_max = CompilerOptions().fusion_c_max_bytes
    rows = []
    for space, _feedback in recorded["trials"]:
        fresh = convert_to_dataflow(graph, space.to_configs())
        fuse_kernels(fresh, c_max)
        converter_bytes = fresh.converter_bytes()
        rows.append((space.default_tile_size, space.overall_unroll_size,
                     objective(space.total_latency_estimate(),
                               converter_bytes, c_max),
                     converter_bytes, float(len(fresh.stream_edges()))))
    assert rows == PINNED_STUDIES[block]
    first_minimum = min(range(len(rows)), key=lambda i: rows[i][2])
    assert first_minimum == recorded["study"].best_trial.number


@pytest.mark.parametrize("block", BLOCKS)
def test_feedback_equals_a_fresh_conversion(zoo_explorations, block):
    recorded = zoo_explorations[block]
    graph = recorded["compiled"].linalg_graph
    c_max = CompilerOptions().fusion_c_max_bytes
    evaluated = [(space, feedback) for space, feedback in recorded["trials"]
                 if feedback is not None]
    assert evaluated
    for space, feedback in evaluated:
        fresh = convert_to_dataflow(graph, space.to_configs())
        fuse_kernels(fresh, c_max)
        assert feedback == {
            "converter_bytes": fresh.converter_bytes(),
            "stream_edges": float(len(fresh.stream_edges())),
        }


@pytest.mark.parametrize("block", BLOCKS)
def test_one_conversion_per_distinct_layout(zoo_explorations, block):
    recorded = zoo_explorations[block]
    assert len(recorded["trials"]) == 6
    assert len({space.layout() for space, _ in recorded["trials"]}) == 4
    evaluated = {space.layout() for space, feedback in recorded["trials"]
                 if feedback is not None}
    # One trial can still win: the other three layouts are never
    # converted, and Stage 3 takes the winner's graph instead of
    # converting again.
    assert len(evaluated) == 1
    assert recorded["conversions"] == len(evaluated)


@pytest.mark.parametrize("block", BLOCKS)
def test_compiled_space_is_the_best_trials_own(zoo_explorations, block):
    recorded = zoo_explorations[block]
    study = recorded["study"]
    assert len(recorded["trials"]) == len(study.trials)
    best = study.best_trial
    space, feedback = recorded["trials"][best.number]
    assert recorded["compiled"].tiling_space is space
    assert feedback == best.feedback
    assert {"default_tile_size": space.default_tile_size,
            "overall_unroll_size": space.overall_unroll_size} == best.params


def test_winner_sharing_an_earlier_layout_gets_its_own_parallelism(
        monkeypatch):
    """Every dim of this graph is 4, so all trials share one layout.  The
    winner is the first trial of its layout to be evaluated, so the one
    graph converted carries the winner's unroll factors, exactly as a
    compile with the winner's parameters does."""
    builder = GraphBuilder("small")
    x = builder.input((4, 4), INT8)
    w = builder.weight((4, 4), INT8)
    builder.output(builder.gelu(builder.matmul(x, w)))
    graph = builder.build()

    conversions = []
    convert = pipeline.convert_to_dataflow
    monkeypatch.setattr(pipeline, "convert_to_dataflow",
                        lambda *args: conversions.append(args) or convert(*args))
    explored = StreamTensorCompiler(
        CompilerOptions(explore_tiling=True)).compile(graph)
    assert len(conversions) == 1

    best = explored.tiling_space
    assert best.overall_unroll_size > 8  # the first candidate's unroll budget
    assert conversions[0][1] == best.to_configs()
    direct = StreamTensorCompiler(CompilerOptions(
        default_tile_size=best.default_tile_size,
        overall_unroll_size=best.overall_unroll_size)).compile(graph)
    for kernel in explored.dataflow_graph.kernels:
        node = best.node(kernel.name)
        assert kernel.tiled.config == node.to_config()
    assert explored.hls.source == direct.hls.source
    assert (replace(explored.report, stage_seconds={})
            == replace(direct.report, stage_seconds={}))


def test_loop_bounds_inferred_only_to_build_the_space_and_tile(monkeypatch):
    """An explored compile infers each op's loop bounds once for the
    tiling space and once per distinct layout it converts; every later
    stage reads the bounds its ``TiledOp`` already carries."""
    graph = build_prefill_block(LLAMA, 256)
    callers = collections.Counter()
    loop_bounds = LinalgOp.loop_bounds

    def tally(op):
        caller = sys._getframe(1).f_code
        callers[(Path(caller.co_filename).name, caller.co_name)] += 1
        return loop_bounds(op)

    monkeypatch.setattr(LinalgOp, "loop_bounds", tally)
    StreamTensorCompiler(CompilerOptions(explore_tiling=True)).compile(
        graph, LLAMA)
    assert set(callers) == {("tiling_space.py", "from_graph"),
                            ("tiling.py", "tile_graph")}
    # 17 ops: once for the space, once in the one layout the study
    # converts (its 4 layouts but the winner's are pruned).
    assert callers[("tiling_space.py", "from_graph")] == 17
    assert sum(callers.values()) == 17 + 1 * 17
