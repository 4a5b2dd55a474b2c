"""Dataflow-level IR structure: kernels, tasks, edges, and the dataflow graph.

This mirrors the structure operations of Table 3:

* a :class:`DataflowKernel` corresponds to the ``kernel`` op — an isolated
  region whose tensor inputs/outputs are converted to/from itensors at its
  boundary (those implicit conversions become DMAs);
* a :class:`DataflowTask` corresponds to the ``task`` op — a node inside a
  kernel (a compute task, a DMA task, or a layout-converter task), possibly
  nested;
* a :class:`DataflowEdge` is a producer-consumer connection carrying itensor
  types on both endpoints.  Before kernel fusion every edge goes through
  external memory; fusion turns edges into on-chip streams (FIFOs), inserting
  layout converters when the endpoint types disagree.

The :class:`DataflowGraph` is the object every later stage operates on:
kernel fusion (Algorithm 2), materialisation, FIFO sizing, graph
partitioning, simulation and code generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.dataflow.tiling import TiledOp
from repro.ir.types import TensorType
from repro.itensor.converter import ConverterSpec
from repro.itensor.itensor_type import ITensorType
from repro.itensor.stream_type import BufferType, StreamType
from repro.itensor.verify import verify_connection, verify_coverage, verify_fifo_tokens


class TaskKind(Enum):
    """Role of a dataflow task within a fused kernel."""

    COMPUTE = "compute"
    DMA_LOAD = "dma_load"
    DMA_STORE = "dma_store"
    CONVERTER = "converter"


class EdgeKind(Enum):
    """How a producer-consumer connection is realised."""

    MEMORY = "memory"   # through external memory (DMA store + DMA load)
    STREAM = "stream"   # on-chip FIFO (possibly via a layout converter)


@dataclass
class Port:
    """A kernel input or output port.

    Attributes:
        name: Port name (derived from the Linalg operand).
        itensor: Stream layout at this port.
        tensor: The full tensor type moving through the port.
        is_parameter: True for model parameters (always loaded from external
            memory; excluded from fusion and the Figure 10a study).
    """

    name: str
    itensor: ITensorType
    tensor: TensorType
    is_parameter: bool = False


@dataclass
class KernelProfile:
    """Per-kernel metrics normally obtained by profiling vendor HLS tools.

    Attributes:
        initial_delay: Cycles from kernel start to its first output token (D).
        pipeline_ii: Cycles between consecutive output tokens (II).
        latency: Total cycles to process all tokens (L).
        dsps, luts, ffs, bram_bytes, uram_bytes: Resource usage estimates.
    """

    initial_delay: float = 0.0
    pipeline_ii: float = 1.0
    latency: float = 0.0
    dsps: int = 0
    luts: int = 0
    ffs: int = 0
    bram_bytes: float = 0.0
    uram_bytes: float = 0.0


#: Depth of a stream edge's FIFO until the FIFO-sizing LP sets one.
DEFAULT_FIFO_DEPTH = 2


@dataclass(eq=False)
class DataflowTask:
    """A task inside a (fused) dataflow kernel.

    ``is_parameter`` marks the DMA load of a model parameter, which
    itensor folding leaves staged in its local buffer.
    """

    name: str
    kind: TaskKind
    input_types: List[ITensorType] = field(default_factory=list)
    output_types: List[ITensorType] = field(default_factory=list)
    buffer: Optional[BufferType] = None
    loop_nest: List[Tuple[int, int]] = field(default_factory=list)
    is_parameter: bool = False

    @property
    def buffer_bytes(self) -> float:
        return self.buffer.size_bytes if self.buffer is not None else 0.0


@dataclass(eq=False)
class DataflowKernel:
    """A dataflow kernel: one tiled Linalg op converted to dataflow form.

    After conversion each kernel holds exactly one compute task; fusion groups
    kernels (assigning ``fusion_index``), and materialisation attaches DMA and
    converter tasks.  ``tiled`` is the tiled op the kernel was converted from:
    its op, tiling config (the unroll factor included) and trip counts.  A
    kernel built without one is an external kernel.
    """

    name: str
    tiled: Optional[TiledOp] = None
    inputs: List[Port] = field(default_factory=list)
    outputs: List[Port] = field(default_factory=list)
    tasks: List[DataflowTask] = field(default_factory=list)
    fusion_index: Optional[int] = None
    die_assignment: Optional[int] = None
    profile: KernelProfile = field(default_factory=KernelProfile)

    @property
    def kind(self) -> str:
        return self.tiled.op.kind if self.tiled is not None else "external"

    def output_port(self, name: str) -> Port:
        for port in self.outputs:
            if port.name == name:
                return port
        raise KeyError(f"kernel {self.name} has no output port {name!r}")

    def local_buffer_bytes(self) -> float:
        """On-chip buffer bytes used by this kernel's tasks (excluding FIFOs)."""
        return sum(task.buffer_bytes for task in self.tasks)

    def __repr__(self) -> str:
        return f"DataflowKernel({self.name}, kind={self.kind}, fusion={self.fusion_index})"


@dataclass(eq=False)
class DataflowEdge:
    """A producer-consumer connection between two kernels (or the host)."""

    producer: Optional[DataflowKernel]
    producer_port: Optional[str]
    consumer: Optional[DataflowKernel]
    consumer_port: Optional[str]
    producer_type: Optional[ITensorType]
    consumer_type: Optional[ITensorType]
    tensor: TensorType
    kind: EdgeKind = EdgeKind.MEMORY
    converter: Optional[ConverterSpec] = None
    fifo_depth: Optional[int] = None
    is_parameter: bool = False
    #: Position in its graph's edge list, set by ``DataflowGraph.add_edge``.
    #: Generated names (``fifo_N``, ``dma_*_N``, ``m_axi_N``, ...) use it, so
    #: a design's names depend on its graph alone.
    uid: int = -1

    @property
    def is_external_input(self) -> bool:
        return self.producer is None

    @property
    def needs_converter(self) -> bool:
        if self.producer_type is None or self.consumer_type is None:
            return False
        return not self.producer_type.is_compatible_with(self.consumer_type)

    @property
    def token_count(self) -> int:
        """Tokens passed over this edge per accelerator execution (T)."""
        if self.producer_type is not None:
            return self.producer_type.num_iterations
        if self.consumer_type is not None:
            return self.consumer_type.num_iterations
        return 1

    def stream_type(self) -> StreamType:
        """FIFO type for this edge once lowered.

        This is the one place a stream edge's FIFO is decided: bufferization,
        HLS stream declarations and on-chip accounting all read it.  The depth
        is the sized ``fifo_depth``, or ``DEFAULT_FIFO_DEPTH`` before sizing.
        """
        itype = self.producer_type or self.consumer_type
        if itype is None:
            raise ValueError("edge has no itensor type")
        depth = self.fifo_depth or DEFAULT_FIFO_DEPTH
        return StreamType(itype.dtype, depth, itype.vector_shape)

    def name(self) -> str:
        src = self.producer.name if self.producer else "host"
        dst = self.consumer.name if self.consumer else "host"
        return f"{src}->{dst}"

    def __repr__(self) -> str:
        return (f"DataflowEdge({self.name()}, kind={self.kind.value}, "
                f"converter={self.needs_converter})")


@dataclass
class DataflowGraph:
    """The application-level dataflow graph."""

    name: str = "dataflow"
    kernels: List[DataflowKernel] = field(default_factory=list)
    edges: List[DataflowEdge] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_kernel(self, kernel: DataflowKernel) -> DataflowKernel:
        self.kernels.append(kernel)
        return kernel

    def add_edge(self, edge: DataflowEdge) -> DataflowEdge:
        edge.uid = len(self.edges)
        self.edges.append(edge)
        return edge

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def kernel_by_name(self, name: str) -> DataflowKernel:
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        raise KeyError(f"no kernel named {name!r}")

    def in_edges(self, kernel: DataflowKernel) -> List[DataflowEdge]:
        return [e for e in self.edges if e.consumer is kernel]

    def out_edges(self, kernel: DataflowKernel) -> List[DataflowEdge]:
        return [e for e in self.edges if e.producer is kernel]

    def predecessors(self, kernel: DataflowKernel) -> List[DataflowKernel]:
        return [e.producer for e in self.in_edges(kernel) if e.producer is not None]

    def internal_edges(self) -> List[DataflowEdge]:
        """Edges between two kernels (not to/from the host)."""
        return [e for e in self.edges
                if e.producer is not None and e.consumer is not None]

    def external_input_edges(self) -> List[DataflowEdge]:
        return [e for e in self.edges if e.producer is None]

    def external_output_edges(self) -> List[DataflowEdge]:
        return [e for e in self.edges if e.consumer is None]

    def stream_edges(self) -> List[DataflowEdge]:
        return [e for e in self.edges if e.kind is EdgeKind.STREAM]

    def memory_edges(self) -> List[DataflowEdge]:
        return [e for e in self.edges if e.kind is EdgeKind.MEMORY]

    def topological_order(self) -> List[DataflowKernel]:
        """Kernels in dependency order (raises on cycles)."""
        indegree = {id(k): 0 for k in self.kernels}
        for edge in self.internal_edges():
            indegree[id(edge.consumer)] += 1
        ready = [k for k in self.kernels if indegree[id(k)] == 0]
        ordered: List[DataflowKernel] = []
        while ready:
            kernel = ready.pop(0)
            ordered.append(kernel)
            for edge in self.out_edges(kernel):
                if edge.consumer is None:
                    continue
                indegree[id(edge.consumer)] -= 1
                if indegree[id(edge.consumer)] == 0:
                    ready.append(edge.consumer)
        if len(ordered) != len(self.kernels):
            raise ValueError("dataflow graph contains a cycle")
        return ordered

    def fusion_groups(self) -> Dict[int, List[DataflowKernel]]:
        """Kernels grouped by their fusion index (post Algorithm 2)."""
        groups: Dict[int, List[DataflowKernel]] = {}
        for kernel in self.kernels:
            index = kernel.fusion_index if kernel.fusion_index is not None else -1
            groups.setdefault(index, []).append(kernel)
        return groups

    # ------------------------------------------------------------------
    # Memory accounting (Figure 10a)
    # ------------------------------------------------------------------
    def intermediate_bytes_unfused(self) -> float:
        """On-chip bytes needed to hold every intermediate result without
        stream-based fusion (one full ping-pong buffer per internal edge)."""
        total = 0.0
        for edge in self.internal_edges():
            if edge.is_parameter:
                continue
            total += 2.0 * edge.tensor.size_bytes
        return total

    def intermediate_bytes_fused(self) -> float:
        """On-chip bytes for intermediate results after fusion: converter
        ping-pong buffers plus FIFO capacities on stream edges, plus full
        buffers for edges that still go through memory are *not* counted
        (they live off-chip)."""
        total = 0.0
        for edge in self.internal_edges():
            if edge.is_parameter:
                continue
            if edge.kind is EdgeKind.STREAM:
                if edge.converter is not None:
                    total += edge.converter.buffer_bytes
                total += edge.stream_type().capacity_bytes
        return total

    def converter_bytes(self) -> float:
        return sum(e.converter.buffer_bytes for e in self.edges
                   if e.converter is not None)

    def verify(self) -> None:
        """Check the graph's structure and its itensor types.

        Every typed edge endpoint must cover its tensor, the two endpoint
        types of an edge must describe the same tensor (a converter may
        reconcile their layouts), and both ends of a stream edge without a
        converter must agree on the token count.

        Raises:
            ValueError: on a structural error.
            StreamVerificationError: on an itensor type error.
        """
        names = [k.name for k in self.kernels]
        if len(names) != len(set(names)):
            raise ValueError("duplicate kernel names in dataflow graph")
        kernel_ids = {id(k) for k in self.kernels}
        for edge in self.edges:
            for endpoint in (edge.producer, edge.consumer):
                if endpoint is not None and id(endpoint) not in kernel_ids:
                    raise ValueError(
                        f"edge {edge.name()} references a kernel not in the graph"
                    )
            types = [t for t in (edge.producer_type, edge.consumer_type)
                     if t is not None]
            for itype in types:
                verify_coverage(itype)
            if len(types) == 2:
                verify_connection(*types, allow_converter=True)
                if edge.kind is EdgeKind.STREAM and edge.converter is None:
                    verify_fifo_tokens(*types)
        self.topological_order()

    def __repr__(self) -> str:
        return (f"DataflowGraph({self.name}, kernels={len(self.kernels)}, "
                f"edges={len(self.edges)})")
