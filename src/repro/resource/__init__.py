"""Resource allocation space: FIFO sizing, graph partitioning, memory allocation."""

from repro.resource.fifo_sizing import (
    FifoSizingResult,
    SizingEdge,
    apply_fifo_sizes,
    size_fifos,
    size_graph_fifos,
    sizing_edges_from_graph,
    solve_delays,
)
from repro.resource.memory_alloc import (
    BufferRequest,
    MemoryAllocation,
    MemoryKind,
    MemoryResource,
    allocate_memory,
)
from repro.resource.partition import (
    PartitionResult,
    PartitionTask,
    partition_graph,
    partition_tasks,
)
from repro.resource.token_model import (
    EqualizationStrategy,
    KernelTiming,
    equalize_timings,
    max_tokens_from_delay,
    simulate_max_tokens,
)

__all__ = [
    "BufferRequest",
    "EqualizationStrategy",
    "FifoSizingResult",
    "KernelTiming",
    "MemoryAllocation",
    "MemoryKind",
    "MemoryResource",
    "PartitionResult",
    "PartitionTask",
    "SizingEdge",
    "allocate_memory",
    "apply_fifo_sizes",
    "equalize_timings",
    "max_tokens_from_delay",
    "partition_graph",
    "partition_tasks",
    "simulate_max_tokens",
    "size_fifos",
    "size_graph_fifos",
    "sizing_edges_from_graph",
    "solve_delays",
]
