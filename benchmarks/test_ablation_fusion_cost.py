"""Ablation: kernel-fusion memory budget sweep (Section 5.2).

Algorithm 2 fuses kernels greedily under a converter-memory budget C_max.
Sweeping C_max shows the trade-off the paper describes: with too little
budget nothing fuses (every intermediate round-trips through external
memory); with the FPGA's real on-chip budget the whole transformer block
fuses into a single group, which is what makes single-FPGA deployment
possible at all.
"""

import pytest

from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.fusion import fuse_kernels, fusion_memory_report
from repro.dse.explorer import build_tiling_space
from repro.models.config import GPT2
from repro.models.transformer import build_prefill_block
from repro.platform.fpga import AMD_U55C

BUDGETS = [0.0, 64e3, 512e3, 4e6, AMD_U55C.onchip_memory_bytes]


def sweep_fusion_budget():
    graph = build_prefill_block(GPT2, 256)
    space = build_tiling_space(graph, 16, 128)
    rows = []
    for budget in BUDGETS:
        dataflow = convert_to_dataflow(graph, space.to_configs())
        plan = fuse_kernels(dataflow, c_max=budget)
        report = fusion_memory_report(dataflow)
        rows.append({
            "budget": budget,
            "groups": plan.num_groups,
            "stream_edges": len(dataflow.stream_edges()),
            "memory_edges": len([e for e in dataflow.internal_edges()
                                 if e not in dataflow.stream_edges()]),
            "fused_bytes": report["fused_bytes"],
        })
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_fusion_memory_budget(benchmark):
    rows = benchmark(sweep_fusion_budget)
    print("\nFusion budget sweep (GPT-2 block, seq 256):")
    for row in rows:
        print(f"  C_max {row['budget'] / 1e6:8.3f} MB -> {row['groups']:3d} groups, "
              f"{row['stream_edges']:3d} stream edges, "
              f"on-chip {row['fused_bytes'] / 1e6:6.2f} MB")

    groups = [row["groups"] for row in rows]
    stream_edges = [row["stream_edges"] for row in rows]
    # More budget -> monotonically fewer (or equal) fused groups and more
    # streaming edges.
    assert groups == sorted(groups, reverse=True)
    assert stream_edges == sorted(stream_edges)
    # Zero budget cannot stream anything; the full budget fuses the whole
    # block into one accelerator (the paper's single-FPGA deployment).
    assert rows[0]["stream_edges"] == 0
    assert rows[-1]["groups"] == 1
    # The fused design's on-chip footprint always respects the budget given
    # to Algorithm 2 (plus the shallow default FIFOs).
    for row in rows[1:]:
        assert row["fused_bytes"] <= row["budget"] + 64e3
