"""Build a simulator instance from a compiled dataflow graph.

After fusion, profiling and FIFO sizing, every fused group of the dataflow
graph can be simulated directly: compute kernels become
:class:`~repro.sim.simulator.SimKernel` instances with their profiled timing,
stream edges become bounded FIFOs with the depths chosen by the LP, and
external-memory edges become source/sink kernels paced by the available HBM
bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.dataflow.structure import DEFAULT_FIFO_DEPTH, DataflowGraph, EdgeKind
from repro.platform.fpga import FpgaPlatform
from repro.sim.simulator import DataflowSimulator, SimFifo, SimKernel


@dataclass
class GraphSimulation:
    """A simulator plus the bookkeeping linking it back to the graph."""

    simulator: DataflowSimulator
    edge_fifo_names: Dict[int, str]

    def run(self, **kwargs):
        return self.simulator.run(**kwargs)


def _dma_timing(tensor_bytes: float, tokens: int, platform: FpgaPlatform,
                share: float = 1.0) -> float:
    """Pipeline II of a DMA streaming ``tensor_bytes`` as ``tokens`` tokens."""
    bandwidth = platform.hbm_bandwidth_bytes_per_cycle * share
    cycles = tensor_bytes / max(1e-9, bandwidth)
    return max(1.0, cycles / max(1, tokens))


def build_simulation(graph: DataflowGraph, platform: FpgaPlatform,
                     default_fifo_depth: int = DEFAULT_FIFO_DEPTH,
                     memory_edge_depth: int = 64) -> GraphSimulation:
    """Construct a token-level simulation of a compiled dataflow graph.

    Kernel timings are taken from each kernel's ``profile`` (fill them with
    :class:`~repro.platform.hls_profiler.HlsProfiler` first).  External
    inputs are modelled as DMA source kernels paced by HBM bandwidth, and
    external outputs as sink kernels.
    """
    sim = DataflowSimulator()
    edge_fifo_names: Dict[int, str] = {}

    # FIFOs: one per edge (stream edges use their sized depth; memory edges
    # use a staging depth standing in for the external-memory round trip).
    # The simulator fires kernels at output-token granularity, so a FIFO must
    # at least hold one firing's worth of the consumer's input tokens (in the
    # real design the kernel drains them incrementally within the firing).
    for edge in graph.edges:
        tokens = max(1, edge.token_count)
        if edge.kind is EdgeKind.STREAM:
            depth = edge.fifo_depth or default_fifo_depth
        else:
            depth = min(memory_edge_depth, tokens)
        if edge.consumer is not None and edge.consumer.outputs:
            consumer_firings = max(1, edge.consumer.outputs[0].itensor.num_iterations)
            depth = max(depth, math.ceil(tokens / consumer_firings))
        if edge.producer is not None and edge.producer.outputs:
            producer_firings = max(1, edge.producer.outputs[0].itensor.num_iterations)
            depth = max(depth, math.ceil(tokens / producer_firings))
        name = f"fifo_{edge.uid}"
        sim.add_fifo(SimFifo(name=name, capacity=max(2, depth)))
        edge_fifo_names[edge.uid] = name

    # Compute kernels.
    for kernel in graph.kernels:
        out_edges = graph.out_edges(kernel)
        in_edges = graph.in_edges(kernel)
        total_firings = max(1, kernel.outputs[0].itensor.num_iterations) \
            if kernel.outputs else 1
        sim_kernel = SimKernel(
            name=kernel.name,
            total_firings=total_firings,
            initial_delay=kernel.profile.initial_delay,
            pipeline_ii=max(1.0, kernel.profile.pipeline_ii),
        )
        for edge in in_edges:
            tokens = max(1, edge.token_count)
            per_firing = tokens / total_firings
            sim_kernel.input_fifos.append((edge_fifo_names[edge.uid], per_firing))
        for edge in out_edges:
            tokens = max(1, edge.token_count)
            per_firing = tokens / total_firings
            sim_kernel.output_fifos.append((edge_fifo_names[edge.uid], per_firing))
        sim.add_kernel(sim_kernel)

    # Host-side sources for external inputs and sinks for external outputs.
    for edge in graph.external_input_edges():
        tokens = max(1, edge.token_count)
        ii = _dma_timing(edge.tensor.size_bytes, tokens, platform)
        sim.add_kernel(SimKernel(
            name=f"dma_in_{edge.uid}",
            total_firings=tokens,
            initial_delay=ii,
            pipeline_ii=ii,
            output_fifos=[(edge_fifo_names[edge.uid], 1.0)],
        ))
    for edge in graph.external_output_edges():
        tokens = max(1, edge.token_count)
        ii = _dma_timing(edge.tensor.size_bytes, tokens, platform)
        sim.add_kernel(SimKernel(
            name=f"dma_out_{edge.uid}",
            total_firings=tokens,
            initial_delay=ii,
            pipeline_ii=ii,
            input_fifos=[(edge_fifo_names[edge.uid], 1.0)],
        ))

    return GraphSimulation(simulator=sim, edge_fifo_names=edge_fifo_names)
