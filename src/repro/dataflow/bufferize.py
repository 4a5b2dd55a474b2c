"""Bufferization: lower itensor-level IR to stream-level IR (Section 3.1.3).

Bufferization strips the stream-layout information from every itensor and
replaces it with a mutable hardware object:

* every stream edge becomes the :class:`~repro.itensor.stream_type.StreamType`
  FIFO of :meth:`~repro.dataflow.structure.DataflowEdge.stream_type`;
* every converter / DMA staging buffer becomes a ping-pong
  :class:`~repro.itensor.stream_type.BufferType`;
* `itensor_to_stream` / `stream_to_itensor` conversions are eliminated.

After this pass, all dataflow component generation must already be complete —
the stream IR no longer carries enough information to infer converters or
check layouts (this is exactly why the paper performs every dataflow
optimisation at the itensor level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.dataflow.structure import DataflowGraph
from repro.itensor.stream_type import BufferType, StreamType


@dataclass
class BufferizationResult:
    """All hardware storage objects produced by bufferization."""

    fifos: Dict[int, StreamType] = field(default_factory=dict)
    buffers: List[BufferType] = field(default_factory=list)
    total_fifo_bytes: float = 0.0
    total_buffer_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.total_fifo_bytes + self.total_buffer_bytes


def bufferize(graph: DataflowGraph) -> BufferizationResult:
    """Lower every stream edge and materialised task buffer to hardware form.

    FIFO depths must already be decided (by :mod:`repro.resource.fifo_sizing`)
    or they take the edge's default.
    """
    result = BufferizationResult()

    for edge in graph.stream_edges():
        if edge.producer_type is None and edge.consumer_type is None:
            continue
        fifo = edge.stream_type()
        result.fifos[edge.uid] = fifo
        result.total_fifo_bytes += fifo.capacity_bytes

    for kernel in graph.kernels:
        for task in kernel.tasks:
            if task.buffer is None:
                continue
            result.buffers.append(task.buffer)
            result.total_buffer_bytes += task.buffer.size_bytes
    return result
