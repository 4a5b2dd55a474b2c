"""The resource-allocation inputs and outputs of every model-zoo block."""

import itertools

import pytest
import scipy.optimize

from repro import (
    MODEL_CONFIGS,
    CompilerOptions,
    StreamTensorCompiler,
    build_decode_block,
    build_prefill_block,
)
from repro.resource import partition


@pytest.fixture(scope="session")
def zoo_allocations():
    """Compile each zoo block as the compile benchmark does, once.

    Maps (model, kind), in model-zoo order, to the partition's tasks and
    result, the arguments of the FIFO-sizing LP and the compiled result.
    """
    blocks = {}
    with pytest.MonkeyPatch.context() as patch:
        calls = {}
        linprog = scipy.optimize.linprog

        def capture_lp(c, A_ub=None, b_ub=None, bounds=None, **kwargs):
            calls["lp"] = (c, A_ub, b_ub, bounds)
            return linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, **kwargs)

        partition_tasks = partition.partition_tasks

        def capture_partition(tasks, num_dies, capacity=None, **kwargs):
            result = partition_tasks(tasks, num_dies, capacity, **kwargs)
            calls["partition"] = (tasks, result)
            return result

        patch.setattr(scipy.optimize, "linprog", capture_lp)
        patch.setattr(partition, "partition_tasks", capture_partition)
        for (model, config), kind in itertools.product(
                MODEL_CONFIGS.items(), ("prefill", "decode")):
            graph = (build_prefill_block(config, 256) if kind == "prefill"
                     else build_decode_block(config, kv_len=64))
            compiled = StreamTensorCompiler(
                CompilerOptions(explore_tiling=True)).compile(graph, config)
            blocks[(model, kind)] = dict(calls, compiled=compiled)
    return blocks
