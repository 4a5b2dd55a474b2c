"""Host runtime code generation (Figure 4's ``Runtime Codegen``).

The host runtime manages everything the accelerator cannot do for itself:

* allocating device buffers for model parameters, activations and KV cache;
* packing/widening parameters into the tiled external-memory layout chosen
  by the interface-packing pass (done once, offline, for static tensors);
* per-layer kernel invocation — the fused transformer-block accelerator is
  triggered once per layer with that layer's weight pointers (Section 6.1);
* synchronisation and output unpacking.

The generated artefact is C++-like source text plus a structured
:class:`HostPlan` that the Python runtime simulator and the evaluation use
directly (the text itself is never executed offline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.dataflow.structure import DataflowGraph
from repro.models.config import ModelConfig
from repro.platform.fpga import FpgaPlatform


@dataclass
class HostBufferSpec:
    """One device buffer the host must allocate."""

    name: str
    bytes: float
    kind: str  # "parameter", "activation", "kv_cache", or "output"
    packed: bool = True


@dataclass
class HostPlan:
    """Structured description of the host runtime's work."""

    buffers: List[HostBufferSpec] = field(default_factory=list)
    invocations_per_token: int = 1
    parameter_bytes: float = 0.0
    activation_bytes: float = 0.0


@dataclass
class HostArtifact:
    """Generated host source plus its structured plan."""

    source: str
    plan: HostPlan

    @property
    def line_count(self) -> int:
        return self.source.count("\n") + 1


def build_host_plan(graph: DataflowGraph, config: ModelConfig,
                    platform: FpgaPlatform) -> HostPlan:
    """Derive the host plan from the compiled graph and model config."""
    plan = HostPlan(invocations_per_token=config.num_layers)
    weight_bytes_per_element = platform.quantization.weight_bits / 8.0
    act_bytes_per_element = platform.quantization.activation_bits / 8.0

    for edge in graph.memory_edges():
        if edge.producer is not None and edge.consumer is not None:
            continue  # inter-group spill buffers are handled per-group
        tensor = edge.tensor
        if edge.is_parameter:
            size = tensor.num_elements * weight_bytes_per_element * config.num_layers
            plan.buffers.append(HostBufferSpec(
                name=f"param_{edge.uid}", bytes=size, kind="parameter"))
            plan.parameter_bytes += size
        elif edge.is_external_input:
            size = tensor.num_elements * act_bytes_per_element
            kind = "kv_cache" if "cache" in (edge.consumer_port or "") else "activation"
            plan.buffers.append(HostBufferSpec(
                name=f"input_{edge.uid}", bytes=size, kind=kind))
            plan.activation_bytes += size
        else:
            size = tensor.num_elements * act_bytes_per_element
            plan.buffers.append(HostBufferSpec(
                name=f"output_{edge.uid}", bytes=size, kind="output"))
            plan.activation_bytes += size
    return plan


def generate_host(graph: DataflowGraph, config: ModelConfig,
                  platform: FpgaPlatform) -> HostArtifact:
    """Generate the host runtime source and plan."""
    plan = build_host_plan(graph, config, platform)
    lines = [
        "// Generated host runtime (StreamTensor reproduction)",
        "#include <xrt/xrt_kernel.h>",
        "#include <vector>",
        "",
        f"// model: {config.name}, layers: {config.num_layers}, "
        f"quantization: {platform.quantization.name}",
        "int main(int argc, char** argv) {",
        f"  auto device = xrt::device(0); // {platform.name}",
        f"  auto kernel = xrt::kernel(device, xclbin, \"{graph.name}_top\");",
    ]
    for buffer in plan.buffers:
        lines.append(
            f"  auto {buffer.name} = xrt::bo(device, {int(buffer.bytes)}, "
            f"kernel.group_id(0)); // {buffer.kind}"
        )
    lines.extend([
        "  // pack parameters offline into the tiled+widened layout",
        "  pack_parameters(/* static tensors fused with pack/widen */);",
        f"  for (int layer = 0; layer < {config.num_layers}; ++layer) {{",
        "    auto run = kernel(layer_weights[layer], activations, kv_cache);",
        "    run.wait();",
        "  }",
        "  unpack_outputs();",
        "  return 0;",
        "}",
    ])
    return HostArtifact(source="\n".join(lines), plan=plan)
