"""Linalg-to-dataflow conversion (Section 4.1, Figure 6(b)->(c)).

Each tiled Linalg op becomes a :class:`~repro.dataflow.structure.DataflowKernel`
whose boundary tensors are converted to/from itensors — the itensor types are
inferred from the tile-loop nest and the slice offsets/sizes (done by
:mod:`repro.dataflow.tiling`).  Constant ops (weights, fills) do not become
kernels: their results are external-memory inputs of the consuming kernels,
since model parameters are far too large to stream on-chip (Section 6.2.1
excludes them from the fusion study for the same reason).

After conversion every producer-consumer connection is a ``MEMORY`` edge —
all intermediate results would round-trip through external memory exactly as
in Figure 1(a).  Stream-based kernel fusion (:mod:`repro.dataflow.fusion`)
subsequently turns as many of these as possible into on-chip ``STREAM`` edges.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dataflow.structure import (
    DataflowEdge,
    DataflowGraph,
    DataflowKernel,
    DataflowTask,
    EdgeKind,
    Port,
    TaskKind,
)
from repro.dataflow.tiling import TiledOp, TilingConfig, tile_graph
from repro.ir.graph import Graph
from repro.itensor.itensor_type import ITensorType


def convert_to_dataflow(graph: Graph,
                        tiling_configs: Optional[Dict[str, TilingConfig]] = None,
                        ) -> DataflowGraph:
    """Convert a Linalg graph into a dataflow graph of kernels.

    Args:
        graph: Verified Linalg graph (after Linalg optimisation).
        tiling_configs: Per-op tiling configs from the DSE stage; ops without
            a config use the naive default tiling.

    Returns:
        A dataflow graph where every inter-kernel edge initially goes through
        external memory.
    """
    graph.verify()
    compute_ops = [op for op in graph.topological_sort() if not op.is_constant]
    constant_ops = {id(op.result): op for op in graph.ops if op.is_constant}

    tiled: Dict[str, TiledOp] = tile_graph(compute_ops, tiling_configs or {})

    dataflow = DataflowGraph(name=graph.name)
    kernel_of_value: Dict[int, DataflowKernel] = {}
    itensor_of_value: Dict[int, ITensorType] = {}

    for op in compute_ops:
        info = tiled[op.name]
        kernel = DataflowKernel(name=op.name, tiled=info)

        for index, (operand, itype) in enumerate(zip(op.inputs, info.input_itensors)):
            is_param = (
                operand.producer is not None
                and id(operand) in constant_ops
            )
            kernel.inputs.append(Port(
                name=f"in{index}",
                itensor=itype,
                tensor=operand.type,
                is_parameter=is_param,
            ))
        kernel.outputs.append(Port(
            name="out0",
            itensor=info.result_itensor,
            tensor=op.result_type,
        ))
        kernel.tasks.append(DataflowTask(
            name=f"{op.name}_task",
            kind=TaskKind.COMPUTE,
            input_types=list(info.input_itensors),
            output_types=[info.result_itensor],
            loop_nest=list(zip(info.loop_tripcounts, info.loop_steps)),
        ))
        dataflow.add_kernel(kernel)
        kernel_of_value[id(op.result)] = kernel
        itensor_of_value[id(op.result)] = info.result_itensor

    # Build edges.
    for op in compute_ops:
        kernel = dataflow.kernel_by_name(op.name)
        for index, operand in enumerate(op.inputs):
            port = kernel.inputs[index]
            producer_kernel = kernel_of_value.get(id(operand))
            if producer_kernel is not None:
                producer_type = itensor_of_value[id(operand)]
                dataflow.add_edge(DataflowEdge(
                    producer=producer_kernel,
                    producer_port="out0",
                    consumer=kernel,
                    consumer_port=port.name,
                    producer_type=producer_type,
                    consumer_type=port.itensor,
                    tensor=operand.type,
                    kind=EdgeKind.MEMORY,
                ))
            else:
                dataflow.add_edge(DataflowEdge(
                    producer=None,
                    producer_port=None,
                    consumer=kernel,
                    consumer_port=port.name,
                    producer_type=None,
                    consumer_type=port.itensor,
                    tensor=operand.type,
                    kind=EdgeKind.MEMORY,
                    is_parameter=port.is_parameter,
                ))

    produced_outputs = {id(v) for v in graph.outputs}
    for op in compute_ops:
        if id(op.result) in produced_outputs:
            kernel = dataflow.kernel_by_name(op.name)
            dataflow.add_edge(DataflowEdge(
                producer=kernel,
                producer_port="out0",
                consumer=None,
                consumer_port=None,
                producer_type=itensor_of_value[id(op.result)],
                consumer_type=None,
                tensor=op.result_type,
                kind=EdgeKind.MEMORY,
            ))

    dataflow.verify()
    return dataflow

