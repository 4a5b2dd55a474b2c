"""The tiling exploration of every model-zoo block, recorded once."""

import itertools

import pytest

from repro import (
    MODEL_CONFIGS,
    CompilerOptions,
    StreamTensorCompiler,
    build_decode_block,
    build_prefill_block,
)
from repro.compiler import pipeline
from repro.dse import explorer


@pytest.fixture(scope="session")
def zoo_explorations():
    """Compile each zoo block with tiling exploration, as the compile
    benchmark does, once.

    Maps (model, kind), in model-zoo order, to the study, the ``[space,
    feedback]`` pair of every trial in candidate order (so a trial's pair
    is at its ``number``; ``feedback`` stays ``None`` for a pruned trial),
    the number of Linalg-to-dataflow conversions of the compile and the
    compiled result.
    """
    blocks = {}
    with pytest.MonkeyPatch.context() as patch:
        record = {}
        convert = pipeline.convert_to_dataflow
        explore = pipeline.explore_tiling_space
        populate = explorer._populate

        def count_conversion(*args, **kwargs):
            record["conversions"] += 1
            return convert(*args, **kwargs)

        def capture_candidate(space):
            record["trials"].append([populate(space), None])
            return space

        def capture_exploration(graph, fusion_feedback, **kwargs):
            def feedback(space):
                result = fusion_feedback(space)
                trial, = (trial for trial in record["trials"]
                          if trial[0] is space)
                trial[1] = result
                return result

            space, study = explore(graph, feedback, **kwargs)
            record["study"] = study
            return space, study

        patch.setattr(pipeline, "convert_to_dataflow", count_conversion)
        patch.setattr(pipeline, "explore_tiling_space", capture_exploration)
        patch.setattr(explorer, "_populate", capture_candidate)
        for (model, config), kind in itertools.product(
                MODEL_CONFIGS.items(), ("prefill", "decode")):
            graph = (build_prefill_block(config, 256) if kind == "prefill"
                     else build_decode_block(config, kv_len=64))
            record.update(conversions=0, trials=[])
            compiled = StreamTensorCompiler(
                CompilerOptions(explore_tiling=True)).compile(graph, config)
            blocks[(model, kind)] = dict(record, compiled=compiled)
    return blocks
