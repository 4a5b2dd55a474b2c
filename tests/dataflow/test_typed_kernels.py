"""The typed dataflow IR on every model-zoo block.

Each kernel carries its tiled op (``DataflowKernel.tiled``) and each task
says whether it loads a parameter (``DataflowTask.is_parameter``).  Every
pass after conversion reads these fields; these checks hold, per compiled
zoo block, that the fields carry the exploration's decision and that the
passes read the same value from them.
"""

import dataclasses
import itertools
import math
import re

import pytest

from repro import (
    MODEL_CONFIGS,
    CompilerOptions,
    StreamTensorCompiler,
    build_decode_block,
    build_prefill_block,
)
from repro.dataflow.structure import EdgeKind, TaskKind
from repro.dataflow.vectorize import choose_vector_shape
from repro.platform.hls_profiler import HlsProfiler

BLOCKS = list(itertools.product(MODEL_CONFIGS, ("prefill", "decode")))
BLOCK_IDS = [f"{model}-{kind}" for model, kind in BLOCKS]


@pytest.fixture(scope="module")
def zoo_designs():
    """Each zoo block compiled with tiling exploration, as the compile
    benchmark does, keyed (model, kind)."""
    designs = {}
    for model, kind in BLOCKS:
        config = MODEL_CONFIGS[model]
        graph = (build_prefill_block(config, 256) if kind == "prefill"
                 else build_decode_block(config, kv_len=64))
        designs[(model, kind)] = StreamTensorCompiler(
            CompilerOptions(explore_tiling=True)).compile(graph, config)
    return designs


@pytest.fixture(params=BLOCKS, ids=BLOCK_IDS)
def design(request, zoo_designs):
    return zoo_designs[request.param]


def task_functions(source):
    """Generated HLS source split into ``{function name: text}``."""
    return {match.group(1): match.group(0) for match in re.finditer(
        r"^void (\w+)\(.*?^\}", source, re.MULTILINE | re.DOTALL)}


def test_kernels_carry_the_explored_tiling_of_their_op(design):
    ops = {op.name: op for op in design.linalg_graph.ops}
    for kernel in design.dataflow_graph.kernels:
        tiled = kernel.tiled
        assert tiled is not None, kernel.name
        assert tiled.op is ops[kernel.name]
        assert kernel.kind == tiled.op.kind
        explored = design.tiling_space.node(kernel.name).to_config()
        assert tiled.config == explored.normalized(tiled.op)
        assert tiled.config.unroll_factor >= 1


def test_unroll_pragma_is_the_kernels_tiled_unroll_factor(design):
    functions = task_functions(design.hls.source)
    computes = 0
    for kernel in design.dataflow_graph.kernels:
        for task in kernel.tasks:
            if task.kind is not TaskKind.COMPUTE:
                assert "#pragma HLS UNROLL" not in functions[task.name]
                continue
            computes += 1
            body = functions[task.name]
            assert (f"#pragma HLS UNROLL "
                    f"factor={kernel.tiled.config.unroll_factor}\n") in body
            assert f"from the Linalg op '{kernel.kind}'" in body
    assert design.hls.source.count("#pragma HLS UNROLL") == computes


def test_parameter_loads_are_typed_and_keep_their_buffer(design):
    graph = design.dataflow_graph
    folded = set(design.folding.folded_task_names)
    for kernel in graph.kernels:
        parameter_edges = [edge for edge in graph.edges
                           if edge.consumer is kernel and edge.is_parameter]
        assert all(edge.kind is EdgeKind.MEMORY for edge in parameter_edges)
        loads = [task for task in kernel.tasks if task.is_parameter]
        assert len(loads) == len(parameter_edges)
        assert len(loads) == sum(port.is_parameter for port in kernel.inputs)
        for task in loads:
            assert task.kind is TaskKind.DMA_LOAD
            assert task.buffer is not None and task.name not in folded


def test_stream_vectors_follow_the_consumers_tiled_unroll(design):
    edges = [edge for edge in design.dataflow_graph.stream_edges()
             if edge.producer_type is not None
             and edge.consumer_type is not None]
    assert len(edges) == design.vectorization.vectorized_edges
    for edge in edges:
        width = edge.consumer.tiled.config.unroll_factor
        for itype in (edge.producer_type, edge.consumer_type):
            assert itype.vector_shape == choose_vector_shape(itype, width)
            assert math.prod(itype.vector_shape) <= width


def test_profile_reads_the_tiled_unroll_factor(design):
    """Doubling a kernel's unroll factor adds logic and never slows its
    pipeline."""
    profiler = HlsProfiler(CompilerOptions().platform)
    for kernel in design.dataflow_graph.kernels:
        config = kernel.tiled.config
        wider = dataclasses.replace(kernel, tiled=dataclasses.replace(
            kernel.tiled, config=dataclasses.replace(
                config, unroll_factor=2 * config.unroll_factor)))
        base = profiler.profile_kernel(kernel)
        doubled = profiler.profile_kernel(wider)
        assert doubled.luts > base.luts and doubled.ffs > base.ffs
        assert doubled.dsps >= base.dsps
        assert doubled.pipeline_ii <= base.pipeline_ii
