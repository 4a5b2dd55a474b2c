"""Dataflow-level IR and transformations (kernels, tasks, fusion, lowering)."""

from repro.dataflow.bufferize import BufferizationResult, bufferize
from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.folding import FoldingResult, fold_itensors
from repro.dataflow.fusion import (
    FusionPlan,
    apply_fusion,
    edge_fusion_cost,
    explore_fusion,
    fuse_kernels,
    fusion_memory_report,
)
from repro.dataflow.materialize import (
    materialize,
    materialize_converter,
    materialize_dma,
    remove_redundant_converters,
)
from repro.dataflow.packing import (
    PackedLayout,
    PackingResult,
    pack_interface,
    pack_kernel_interfaces,
    widen_for_bus,
)
from repro.dataflow.structure import (
    DataflowEdge,
    DataflowGraph,
    DataflowKernel,
    DataflowTask,
    EdgeKind,
    KernelProfile,
    Port,
    TaskKind,
)
from repro.dataflow.tiling import (
    TiledOp,
    TilingConfig,
    default_tiling,
    tile_graph,
    tile_op,
)
from repro.dataflow.vectorize import (
    VectorizationResult,
    choose_vector_shape,
    vectorize_graph,
    vectorize_itensor,
)

__all__ = [
    "BufferizationResult",
    "DataflowEdge",
    "DataflowGraph",
    "DataflowKernel",
    "DataflowTask",
    "EdgeKind",
    "FoldingResult",
    "FusionPlan",
    "KernelProfile",
    "PackedLayout",
    "PackingResult",
    "Port",
    "TaskKind",
    "TiledOp",
    "TilingConfig",
    "VectorizationResult",
    "apply_fusion",
    "bufferize",
    "choose_vector_shape",
    "convert_to_dataflow",
    "default_tiling",
    "edge_fusion_cost",
    "explore_fusion",
    "fold_itensors",
    "fuse_kernels",
    "fusion_memory_report",
    "materialize",
    "materialize_converter",
    "materialize_dma",
    "pack_interface",
    "pack_kernel_interfaces",
    "remove_redundant_converters",
    "tile_graph",
    "tile_op",
    "vectorize_graph",
    "vectorize_itensor",
    "widen_for_bus",
]
