"""Iterative tensor folding (Section 4.3.2).

When a DMA's ``itensor_write`` and a kernel's ``itensor_read`` connected by a
FIFO have *exactly* matching memory-access patterns, the FIFO and one of the
two staging buffers can be eliminated: the fetched tile is handed directly to
the compute loop.  Folding therefore reduces on-chip memory and improves
latency by increasing kernel overlap, but it is stricter than stream-based
fusion — the patterns must match exactly, so it runs as an extra optimisation
on top of already-fused kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dataflow.structure import (
    DataflowGraph,
    DataflowTask,
    TaskKind,
)


@dataclass
class FoldingResult:
    """Summary of an itensor-folding pass run."""

    folded_edges: int = 0
    buffer_bytes_saved: float = 0.0
    folded_task_names: List[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.folded_task_names is None:
            self.folded_task_names = []


def _exact_pattern_match(producer_task: DataflowTask,
                         consumer_type) -> bool:
    """Producer and consumer must stream tokens in the identical order."""
    if not producer_task.output_types:
        return False
    return producer_task.output_types[0].is_compatible_with(consumer_type)


def fold_itensors(graph: DataflowGraph) -> FoldingResult:
    """Fold DMA-load staging buffers into their consuming compute kernels.

    A fold applies when a DMA-load task feeds a kernel over a stream edge (or
    directly at a fused-kernel boundary) and the DMA's output layout exactly
    matches the kernel's expected input layout; the DMA's ping-pong staging
    buffer is then merged with the kernel's local tile buffer, eliminating
    the intermediate FIFO hop.
    """
    result = FoldingResult()
    for kernel in graph.kernels:
        compute_tasks = [t for t in kernel.tasks if t.kind is TaskKind.COMPUTE]
        if not compute_tasks:
            continue
        compute = compute_tasks[0]
        for task in kernel.tasks:
            if task.kind is not TaskKind.DMA_LOAD or task.buffer is None:
                # A folded DMA has already given up its buffer.
                continue
            if task.is_parameter:
                # Parameter DMAs always stage into a local buffer that the
                # compute loop reads repeatedly; folding them would force the
                # compute loop to stall on external memory.
                continue
            consumer_types = compute.input_types
            if not any(_exact_pattern_match(task, ctype) for ctype in consumer_types):
                continue
            result.folded_edges += 1
            result.buffer_bytes_saved += task.buffer.size_bytes
            result.folded_task_names.append(task.name)
            task.buffer = None
    return result
