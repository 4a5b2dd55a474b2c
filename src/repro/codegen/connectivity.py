"""Link connectivity configuration generation (Figure 4's ``Connectivity Codegen``).

Vitis links the generated kernels into a bitstream according to a ``.cfg``
file that assigns each memory-mapped interface to an HBM pseudo-channel and
each kernel to an SLR (die).  This module generates that configuration from
the compiled dataflow graph: DMA interfaces are spread round-robin across
HBM channels, and the SLR assignments come from the ILP graph partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.dataflow.structure import DataflowGraph
from repro.platform.fpga import FpgaPlatform


@dataclass
class ConnectivityConfig:
    """The generated link configuration."""

    text: str
    hbm_assignments: Dict[str, int] = field(default_factory=dict)
    slr_assignments: Dict[str, int] = field(default_factory=dict)

    @property
    def num_memory_ports(self) -> int:
        return len(self.hbm_assignments)


def generate_connectivity(graph: DataflowGraph, platform: FpgaPlatform,
                          num_hbm_channels: int = 32) -> ConnectivityConfig:
    """Generate the Vitis-style connectivity configuration."""
    lines = ["[connectivity]", f"# target platform: {platform.name}"]
    hbm: Dict[str, int] = {}
    slr: Dict[str, int] = {}

    channel = 0
    for edge in graph.memory_edges():
        owner = edge.consumer or edge.producer
        if owner is None:
            continue
        port = f"{owner.name}.m_axi_{edge.uid}"
        hbm[port] = channel % num_hbm_channels
        lines.append(f"sp={port}:HBM[{hbm[port]}]")
        channel += 1

    for kernel in graph.kernels:
        die = kernel.die_assignment if kernel.die_assignment is not None else 0
        if not 0 <= die < platform.num_dies:
            raise ValueError(f"kernel {kernel.name} is on die {die}, but "
                             f"{platform.name} has {platform.num_dies} SLRs")
        slr[kernel.name] = die
        lines.append(f"slr={kernel.name}:SLR{die}")

    streams = len(graph.stream_edges())
    lines.append(f"# {streams} on-chip stream connections (AXI4-Stream)")
    return ConnectivityConfig(text="\n".join(lines), hbm_assignments=hbm,
                              slr_assignments=slr)
