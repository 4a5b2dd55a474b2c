"""Ablation: Normal vs Conservative equalisation (Section 5.3.3).

The Conservative strategy scales every kernel's II to the slowest kernel's
throughput: FIFO depths (area) shrink, but faster kernels stall and overall
latency grows — the area/performance trade-off the paper describes, and the
mechanism behind Llama's lower energy efficiency in Figure 9.
"""

import pytest

from repro.eval.latency import FpgaPerformanceModel
from repro.models.config import GPT2, LLAMA
from repro.models.workload import Workload
from repro.resource.fifo_sizing import size_fifos, sizing_edges_from_graph
from repro.resource.token_model import EqualizationStrategy


@pytest.mark.benchmark(group="ablation")
def test_ablation_equalization_strategies(benchmark, warm_context):
    result = warm_context.compiled(GPT2)
    graph = result.dataflow_graph
    timings = result.kernel_timings
    edges = sizing_edges_from_graph(graph)

    def size_both():
        normal = size_fifos(edges, timings, EqualizationStrategy.NORMAL)
        conservative = size_fifos(edges, timings, EqualizationStrategy.CONSERVATIVE)
        return normal, conservative

    normal, conservative = benchmark(size_both)

    print(f"\nNormal:       total depth {normal.total_depth:6d}  "
          f"FIFO bytes {normal.total_fifo_bytes / 1e3:8.1f} KB")
    print(f"Conservative: total depth {conservative.total_depth:6d}  "
          f"FIFO bytes {conservative.total_fifo_bytes / 1e3:8.1f} KB")

    # Area: conservative never needs more FIFO storage than normal.
    assert conservative.total_depth <= normal.total_depth
    assert conservative.total_fifo_bytes <= normal.total_fifo_bytes

    # Performance: the conservative strategy dilates latency in the
    # end-to-end model (the Llama effect of Figure 9).
    model = FpgaPerformanceModel()
    workload = Workload(64, 64)
    threshold = (model.conservative_threshold_fraction
                 * model.platform.onchip_memory_bytes)
    normal_latency = model.evaluate(LLAMA, workload,
                                    intermediate_bytes=threshold * 0.5).latency_s
    conservative_latency = model.evaluate(LLAMA, workload,
                                          intermediate_bytes=threshold * 2).latency_s
    print(f"Llama [64:64] latency: normal {normal_latency * 1e3:.1f} ms, "
          f"conservative {conservative_latency * 1e3:.1f} ms")
    assert conservative_latency > normal_latency
