"""Analytical HLS profiling model (the paper's vendor-tool profiling stage).

StreamTensor must know each kernel's initiation interval (II), initial delay
and latency before it can size FIFOs, and its resource usage before it can
allocate memory and partition dies.  The paper obtains these numbers by
invoking AMD Vitis HLS in the middle of the flow; offline we substitute an
analytical model of a pipelined, spatially-unrolled kernel on the target
FPGA:

* compute-limited II — the scalar operations needed per output token divided
  by the kernel's unroll factor (spatial parallelism);
* memory-limited II — the external-memory bytes that must be fetched per
  output token (dominated by model parameters) divided by the per-kernel
  share of HBM bandwidth;
* the achieved II is the maximum of the two, plus the pipeline's fill time
  as the initial delay.

The same module also models the *wall-clock runtime* of the vendor tools
(HLS synthesis and profiling), which Figure 10b reports as the dominant part
of RTL generation time, and of the host's one-time parameter packing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.dataflow.structure import DataflowGraph, DataflowKernel, KernelProfile
from repro.platform.fpga import FpgaPlatform
from repro.resource.token_model import KernelTiming

# Fixed microarchitectural constants of the analytical model.
PIPELINE_FILL_CYCLES = 64.0
DMA_SETUP_CYCLES = 32.0
OPS_PER_ELEMENT = {
    "matmul": 2.0,
    "batch_matmul": 2.0,
    "softmax": 6.0,
    "layer_norm": 8.0,
    "rms_norm": 6.0,
    "gelu": 12.0,
    "silu": 8.0,
    "rotary": 6.0,
    "transpose": 1.0,
}
DSP_PER_MAC_BY_WEIGHT_BITS = {4: 0.25, 8: 0.5, 16: 1.0, 32: 2.0}


@dataclass
class HlsProfiler:
    """Profiles dataflow kernels for a given FPGA platform.

    Attributes:
        platform: Target FPGA.
    """

    platform: FpgaPlatform

    # ------------------------------------------------------------------
    # Per-kernel profiling
    # ------------------------------------------------------------------
    def _ops_per_element(self, kind: str) -> float:
        return OPS_PER_ELEMENT.get(kind, 1.0)

    def _parameter_bytes(self, kernel: DataflowKernel) -> float:
        quant = self.platform.quantization
        total = 0.0
        for port in kernel.inputs:
            if port.is_parameter:
                total += port.tensor.num_elements * quant.weight_bits / 8.0
        return total

    def profile_kernel(self, kernel: DataflowKernel,
                       memory_share: float = 1.0) -> KernelProfile:
        """Profile one kernel: II, initial delay, latency and resources.

        Args:
            kernel: The dataflow kernel.  Its ``tiled`` op gives the
                iteration count and unroll factor; a kernel without one
                (an external kernel) gets an empty profile.
            memory_share: Fraction of the board's HBM bandwidth available to
                this kernel's parameter DMAs (kernels in one fused group run
                concurrently and share the ports).
        """
        tiled = kernel.tiled
        if tiled is None:
            return KernelProfile()
        op = tiled.op
        unroll = tiled.config.unroll_factor
        output_port = kernel.outputs[0]
        total_tokens = max(1, output_port.itensor.num_iterations)

        total_ops = tiled.iteration_count * self._ops_per_element(op.kind)
        compute_cycles = total_ops / unroll

        bandwidth = self.platform.hbm_bandwidth_bytes_per_cycle * max(
            1e-3, min(1.0, memory_share))
        param_bytes = self._parameter_bytes(kernel)
        memory_cycles = param_bytes / bandwidth if bandwidth > 0 else 0.0

        steady_cycles = max(compute_cycles, memory_cycles)
        pipeline_ii = max(1.0, steady_cycles / total_tokens)
        initial_delay = pipeline_ii + PIPELINE_FILL_CYCLES + DMA_SETUP_CYCLES
        latency = initial_delay + (total_tokens - 1) * pipeline_ii

        quant = self.platform.quantization
        dsp_per_mac = DSP_PER_MAC_BY_WEIGHT_BITS.get(quant.weight_bits, 1.0)
        is_mac_kernel = op.kind in ("matmul", "batch_matmul")
        dsps = int(math.ceil(unroll * (dsp_per_mac if is_mac_kernel else 0.1)))
        luts = int(2000 + unroll * 150)
        ffs = int(3000 + unroll * 200)
        bram_bytes = kernel.local_buffer_bytes()

        return KernelProfile(
            initial_delay=initial_delay,
            pipeline_ii=pipeline_ii,
            latency=latency,
            dsps=dsps,
            luts=luts,
            ffs=ffs,
            bram_bytes=bram_bytes,
        )

    # ------------------------------------------------------------------
    # Whole-graph profiling
    # ------------------------------------------------------------------
    def profile_graph(self, graph: DataflowGraph) -> Dict[str, KernelTiming]:
        """Profile every kernel and return FIFO-sizing timings.

        Kernels within the same fused group execute concurrently and share
        external-memory bandwidth; the share is split evenly among the
        group's parameter-reading kernels.
        """
        groups = graph.fusion_groups()
        shares: Dict[str, float] = {}
        for members in groups.values():
            param_kernels = [k for k in members
                             if any(p.is_parameter for p in k.inputs)]
            share = 1.0 / max(1, len(param_kernels))
            for kernel in members:
                shares[kernel.name] = share if kernel in param_kernels else 1.0

        timings: Dict[str, KernelTiming] = {}
        for kernel in graph.kernels:
            profile = self.profile_kernel(kernel, shares.get(kernel.name, 1.0))
            kernel.profile = profile
            timings[kernel.name] = KernelTiming(
                name=kernel.name,
                initial_delay=profile.initial_delay,
                pipeline_ii=profile.pipeline_ii,
                total_tokens=kernel.outputs[0].itensor.num_iterations
                if kernel.outputs else 1,
            )
        return timings

    # ------------------------------------------------------------------
    # Vendor tool runtime model (Figure 10b)
    # ------------------------------------------------------------------
    def estimate_hls_synthesis_seconds(self, graph: DataflowGraph,
                                       parallel_jobs: int = 8) -> float:
        """Wall-clock estimate for Vitis HLS C-synthesis of every kernel.

        HLS runtime grows with the kernel's loop-nest size and unroll factor;
        kernels are synthesised in parallel across ``parallel_jobs`` workers.
        """
        per_kernel = []
        for kernel in graph.kernels:
            unroll = kernel.tiled.config.unroll_factor
            tasks = max(1, len(kernel.tasks))
            per_kernel.append(90.0 + 12.0 * math.log2(1 + unroll) * tasks)
        per_kernel.sort(reverse=True)
        # Longest-processing-time schedule onto the parallel workers.
        workers = [0.0] * max(1, parallel_jobs)
        for seconds in per_kernel:
            workers[workers.index(min(workers))] += seconds
        return max(workers) if workers else 0.0

    def estimate_profiling_seconds(self, graph: DataflowGraph,
                                   parallel_jobs: int = 8) -> float:
        """Wall-clock estimate for the vendor profiling runs (co-simulation)."""
        return 0.45 * self.estimate_hls_synthesis_seconds(graph, parallel_jobs)


def parameter_packing_seconds(parameter_bytes: float) -> float:
    """Host time to pack ``parameter_bytes`` of weights into the device
    layout (widening + tiling), paid once per design (Figure 10b): 5 s of
    setup plus 1.2 GB/s."""
    return 5.0 + parameter_bytes / 1.2e9
