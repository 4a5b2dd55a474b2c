"""The end-to-end StreamTensor compilation pipeline (Figure 4).

``StreamTensorCompiler.compile`` takes a Linalg graph (from the LLM frontend
or built by hand) and runs every stage of the paper's flow:

1. Linalg optimisation — fill and elementwise fusion.
2. Linalg tiling — tiling-space construction (naive tiling, intensity-driven
   unrolling, permutation heuristic), optionally wrapped in the black-box
   hyperparameter exploration.
3. Linalg-to-dataflow conversion and stream-based kernel fusion (Algorithm 2)
   under the on-chip memory budget.
4. Dataflow optimisation — converter CSE, DMA/converter materialisation,
   itensor folding, itensor vectorisation, interface pack/widen.
5. Resource allocation — analytical HLS profiling, LP FIFO sizing, ILP die
   partitioning, memory allocation.
6. Bufferization — lowering itensors to streams and buffers.
7. Code generation — HLS C++ emission (with its pipeline/unroll pragmas),
   connectivity configuration and host runtime generation.  The HLS_Opt
   stage of Figure 10c has no separate pass, so its time reads 0.

Each stage's product is returned once, into the :class:`CompilationResult`;
the only results written onto the dataflow graph are the ones later stages
read there (``edge.fifo_depth``, ``kernel.die_assignment``,
``kernel.profile``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.codegen.connectivity import ConnectivityConfig, generate_connectivity
from repro.codegen.hls import HlsArtifact, generate_hls
from repro.codegen.host import HostArtifact, generate_host
from repro.compiler.options import CompilerOptions
from repro.compiler.report import CompileReport, StageTimer
from repro.dataflow.bufferize import BufferizationResult, bufferize
from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.folding import FoldingResult, fold_itensors
from repro.dataflow.fusion import FusionPlan, fuse_kernels, fusion_memory_report
from repro.dataflow.materialize import materialize, remove_redundant_converters
from repro.dataflow.packing import PackingResult, pack_kernel_interfaces
from repro.dataflow.structure import DataflowGraph
from repro.dataflow.vectorize import VectorizationResult, vectorize_graph
from repro.dse.explorer import build_tiling_space, explore_tiling_space
from repro.dse.tiling_space import TilingSpace
from repro.ir.graph import Graph
from repro.ir.passes import default_linalg_pipeline
from repro.models.config import ModelConfig
from repro.platform.hls_profiler import HlsProfiler
from repro.resource.fifo_sizing import FifoSizingResult, size_graph_fifos
from repro.resource.memory_alloc import (
    BufferRequest,
    MemoryAllocation,
    allocate_memory,
)
from repro.resource.partition import PartitionResult, partition_graph
from repro.resource.token_model import KernelTiming


@dataclass
class CompilationResult:
    """Everything produced by one run of the compiler."""

    linalg_graph: Graph
    dataflow_graph: DataflowGraph
    tiling_space: TilingSpace
    fusion_plan: FusionPlan
    folding: FoldingResult
    vectorization: VectorizationResult
    kernel_timings: Dict[str, KernelTiming] = field(default_factory=dict)
    fifo_sizing: Optional[FifoSizingResult] = None
    partition: Optional[PartitionResult] = None
    memory_allocation: Optional[MemoryAllocation] = None
    bufferization: Optional[BufferizationResult] = None
    packing: Optional[PackingResult] = None
    hls: Optional[HlsArtifact] = None
    host: Optional[HostArtifact] = None
    connectivity: Optional[ConnectivityConfig] = None
    report: CompileReport = field(default_factory=CompileReport)

    @property
    def stage_seconds(self) -> Dict[str, float]:
        return self.report.stage_seconds


class StreamTensorCompiler:
    """Drives the full PyTorch-model-to-accelerator compilation pipeline."""

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions()

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def compile(self, graph: Graph,
                model_config: Optional[ModelConfig] = None) -> CompilationResult:
        """Compile a Linalg graph into a dataflow accelerator design."""
        options = self.options
        timer = StageTimer()
        profiler = HlsProfiler(options.platform)

        # Stage 1: Linalg optimisation.
        with timer.stage("Linalg_Opt"):
            optimized = default_linalg_pipeline().run(graph)

        # Stage 2: Linalg tiling space (optionally explored).
        fused: Dict[Tuple, Tuple[DataflowGraph, FusionPlan]] = {}
        with timer.stage("Linalg_Tiling"):
            if options.explore_tiling:
                space, _study = explore_tiling_space(
                    optimized,
                    fusion_feedback=self._fusion_feedback(optimized, fused),
                    n_trials=options.exploration_trials,
                    memory_budget_bytes=options.fusion_c_max_bytes,
                    seed=options.seed,
                )
            else:
                space = build_tiling_space(
                    optimized, options.default_tile_size,
                    options.overall_unroll_size,
                )
            tiling_configs = space.to_configs()

        # Stage 3: Linalg to dataflow + kernel fusion.  An explored space
        # was already converted and fused while it was a trial.
        with timer.stage("Kernel_Fusion"):
            winner = fused.pop(space.layout(), None)
            fused.clear()  # the other layouts' graphs
            if winner is None:
                dataflow = convert_to_dataflow(optimized, tiling_configs)
                plan = fuse_kernels(dataflow, options.fusion_c_max_bytes)
            else:
                dataflow, plan = winner
            remove_redundant_converters(dataflow)

        # Stage 4: Dataflow optimisation.
        with timer.stage("Dataflow_Opt"):
            materialize(dataflow)
            folding = fold_itensors(dataflow)
            vectorization = vectorize_graph(dataflow)
            packing = pack_kernel_interfaces(dataflow)
            # Last look at the itensor types: bufferization drops them.
            dataflow.verify()

        # Stage 5: Resource allocation.
        with timer.stage("Resource_Alloc"):
            timings = profiler.profile_graph(dataflow)
            fifo_sizing = size_graph_fifos(dataflow, timings,
                                           options.equalization)
            partition = partition_graph(dataflow, options.effective_num_dies)
            memory_allocation = self._allocate_memory(dataflow)

        # Stage 6: Bufferization.
        with timer.stage("Bufferization"):
            bufferization = bufferize(dataflow)

        # Stage 7: Code generation.
        hls = host = connectivity = None
        with timer.stage("Code_Gen"):
            if options.generate_code:
                hls = generate_hls(dataflow)
                connectivity = generate_connectivity(dataflow, options.platform)
                if model_config is not None:
                    host = generate_host(dataflow, model_config, options.platform)

        report = self._build_report(graph, dataflow, plan, timer, hls, host,
                                    model_config)
        return CompilationResult(
            linalg_graph=optimized,
            dataflow_graph=dataflow,
            tiling_space=space,
            fusion_plan=plan,
            kernel_timings=timings,
            fifo_sizing=fifo_sizing,
            partition=partition,
            memory_allocation=memory_allocation,
            bufferization=bufferization,
            folding=folding,
            vectorization=vectorization,
            packing=packing,
            hls=hls,
            host=host,
            connectivity=connectivity,
            report=report,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _fusion_feedback(self, graph: Graph,
                         fused: Dict[Tuple, Tuple[DataflowGraph, FusionPlan]]):
        """Objective feedback used by the black-box tiling exploration.

        The exploration asks only for the trials its latency bound cannot
        rule out (see ``explore_tiling_space``), so a compile converts the
        winner's layout and those of the few losers that were still in
        the running.  The fused graph depends only on the space's layout
        (see ``TilingSpace.layout``), so each of those layouts is
        converted, verified and fused once; ``fused`` keeps the graph and
        fusion plan of every one until Stage 3 of the same compile takes
        the winner's, and trials sharing a layout share its feedback.

        Within one layout the objective rises with the latency bound, and
        trials are evaluated in bound order with ties going to the first,
        so no trial beats an evaluated one of its own layout.  The winner
        is thus the first trial of its layout to be evaluated: the graph
        Stage 3 takes was converted from the winner's own configs, unroll
        factors included.
        """
        c_max = self.options.fusion_c_max_bytes

        def feedback(space: TilingSpace) -> Dict[str, float]:
            layout = space.layout()
            if layout not in fused:
                dataflow = convert_to_dataflow(graph, space.to_configs())
                fused[layout] = (dataflow, fuse_kernels(dataflow, c_max))
            dataflow, _plan = fused[layout]
            return {
                "converter_bytes": dataflow.converter_bytes(),
                "stream_edges": float(len(dataflow.stream_edges())),
            }

        return feedback

    def _allocate_memory(self, dataflow: DataflowGraph) -> MemoryAllocation:
        requests = []
        for kernel in dataflow.kernels:
            for task in kernel.tasks:
                if task.buffer is not None:
                    requests.append(BufferRequest(task.name, task.buffer.size_bytes))
        for edge in dataflow.stream_edges():
            requests.append(BufferRequest(f"fifo_{edge.uid}",
                                          edge.stream_type().capacity_bytes))
        resources = self.options.platform.memory_resources()
        return allocate_memory(requests, resources)

    def _build_report(self, graph: Graph, dataflow: DataflowGraph,
                      plan: FusionPlan, timer: StageTimer,
                      hls: Optional[HlsArtifact], host: Optional[HostArtifact],
                      model_config: Optional[ModelConfig]) -> CompileReport:
        memory = fusion_memory_report(dataflow)
        return CompileReport(
            model=model_config.name if model_config else graph.name,
            num_kernels=len(dataflow.kernels),
            num_stream_edges=len(dataflow.stream_edges()),
            num_memory_edges=len(dataflow.memory_edges()),
            num_converters=sum(1 for e in dataflow.edges if e.converter is not None),
            num_fused_groups=plan.num_groups,
            converter_bytes=dataflow.converter_bytes(),
            fifo_bytes=sum(e.stream_type().capacity_bytes
                           for e in dataflow.stream_edges()),
            intermediate_bytes_unfused=memory["original_bytes"],
            intermediate_bytes_fused=memory["fused_bytes"],
            onchip_budget_bytes=self.options.platform.onchip_memory_bytes,
            stage_seconds=timer.breakdown(),
            hls_lines=hls.line_count if hls else 0,
            host_lines=host.line_count if host else 0,
        )


def compile_model_block(graph: Graph, model_config: Optional[ModelConfig] = None,
                        options: Optional[CompilerOptions] = None,
                        ) -> CompilationResult:
    """Convenience one-call compilation entry point."""
    return StreamTensorCompiler(options).compile(graph, model_config)
