"""Materialisation of DMAs and stream layout converters (Section 4.3.1).

Before materialisation, converters are abstract ``itensor_converter`` ops and
DMAs are implicit tensor<->itensor conversions at kernel boundaries.  This
pass lowers them into explicit dataflow tasks:

* every external-memory edge endpoint becomes a DMA task — a loop nest that
  (1) loads/stores packed vectors from/to external memory, (2) stages them in
  a local ping-pong buffer to hide memory latency, and (3) pushes/pulls
  tokens to/from the kernel FIFO in the layout encoded by the itensor type;
* every stream edge whose endpoint types disagree becomes a converter task
  with the ping-pong buffer inferred by Algorithm 1, wrapped in the shared
  loops that allow the buffer to be reused.

Keeping converters/DMAs abstract until after fusion lets CSE remove
redundant converters cheaply; once materialised, every dataflow component is
a plain task so later passes (vectorisation, bufferization, codegen) treat
them uniformly.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.dataflow.structure import (
    DataflowEdge,
    DataflowGraph,
    DataflowTask,
    EdgeKind,
    TaskKind,
)
from repro.itensor.converter import infer_converter
from repro.itensor.itensor_type import ITensorType
from repro.itensor.stream_type import BufferType


def _dma_buffer(itype: ITensorType) -> BufferType:
    """The staging ping-pong buffer of a DMA: one token (tile) deep."""
    return BufferType(itype.element_shape, itype.dtype, double_buffered=True)


def materialize_dma(edge: DataflowEdge, direction: str) -> DataflowTask:
    """Create the DMA task for one endpoint of an external-memory edge.

    Args:
        edge: The memory edge.
        direction: ``"load"`` (memory -> kernel) or ``"store"``.
    """
    if direction not in ("load", "store"):
        raise ValueError(f"direction must be 'load' or 'store', got {direction!r}")
    itype = edge.consumer_type if direction == "load" else edge.producer_type
    if itype is None:
        raise ValueError("cannot materialise a DMA without an itensor type")
    kind = TaskKind.DMA_LOAD if direction == "load" else TaskKind.DMA_STORE
    owner = edge.consumer if direction == "load" else edge.producer
    owner_name = owner.name if owner is not None else "host"
    loop_nest = list(zip(itype.iter_tripcounts, itype.iter_steps))
    return DataflowTask(
        name=f"dma_{direction}_{owner_name}_{edge.uid}",
        kind=kind,
        input_types=[itype] if direction == "store" else [],
        output_types=[itype] if direction == "load" else [],
        buffer=_dma_buffer(itype),
        loop_nest=loop_nest,
        is_parameter=edge.is_parameter,
    )


def materialize_converter(edge: DataflowEdge) -> DataflowTask:
    """Create the converter task of a stream edge with mismatched layouts."""
    if edge.producer_type is None or edge.consumer_type is None:
        raise ValueError("converter edges need both endpoint types")
    spec = edge.converter or infer_converter(edge.producer_type, edge.consumer_type)
    shared_loop_nest = [
        (spec.source.iter_tripcounts[loop], spec.source.iter_steps[loop])
        for loop in spec.shared_loops
    ]
    return DataflowTask(
        name=f"converter_{edge.uid}",
        kind=TaskKind.CONVERTER,
        input_types=[edge.producer_type],
        output_types=[edge.consumer_type],
        buffer=spec.buffer,
        loop_nest=shared_loop_nest,
    )


def materialize(graph: DataflowGraph) -> List[DataflowTask]:
    """Materialise every DMA and converter in the graph, in place.

    DMA-load tasks are attached to the consuming kernel, DMA-store tasks to
    the producing kernel, and converter tasks to the producing kernel of
    their stream edge (they execute inside the same fused kernel).  Returns
    every task it attached, in edge order.
    """
    tasks: List[DataflowTask] = []

    for edge in graph.edges:
        if edge.kind is EdgeKind.MEMORY:
            if edge.consumer is not None:
                task = materialize_dma(edge, "load")
                edge.consumer.tasks.append(task)
                tasks.append(task)
            if edge.producer is not None:
                task = materialize_dma(edge, "store")
                edge.producer.tasks.append(task)
                tasks.append(task)
        else:
            if edge.needs_converter:
                if edge.converter is None:
                    edge.converter = infer_converter(edge.producer_type,
                                                     edge.consumer_type)
                task = materialize_converter(edge)
                assert edge.producer is not None
                edge.producer.tasks.append(task)
                tasks.append(task)
    return tasks


def remove_redundant_converters(graph: DataflowGraph) -> int:
    """Common-subexpression elimination over converters (Section 4.3.1).

    When one producer feeds several consumers that all require the *same*
    layout conversion, a single converter (followed by an itensor fork) is
    enough.  Returns the number of converters removed.  Must run before
    materialisation — afterwards the converters are plain tasks and the
    sharing opportunity is hidden.
    """
    removed = 0
    by_producer: Dict[int, List[DataflowEdge]] = {}
    for edge in graph.stream_edges():
        if edge.producer is None or not edge.needs_converter:
            continue
        by_producer.setdefault(id(edge.producer), []).append(edge)

    for edges in by_producer.values():
        seen: Set[str] = set()
        for edge in edges:
            key = str(edge.consumer_type)
            if key in seen:
                edge.converter = None
                removed += 1
            else:
                if edge.converter is None:
                    edge.converter = infer_converter(edge.producer_type,
                                                     edge.consumer_type)
                seen.add(key)
    return removed
