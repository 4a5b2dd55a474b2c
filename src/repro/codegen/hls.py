"""HLS C++ code generation (the ``HLS Codegen`` stage of Figure 4).

Emits synthesizable-style HLS C++ for every dataflow component of a compiled
graph: one function per task (compute kernels, DMAs, layout converters), a
top-level dataflow region wiring them together with ``hls::stream`` FIFOs of
the depths chosen by the FIFO-sizing LP, and the pragmas (``DATAFLOW``,
``PIPELINE``, ``UNROLL``, ``ARRAY_PARTITION``, stream depths) that the
directive-materialisation pass decides.

The output is a textual artefact: it documents exactly what the compiler
decided and is what would be handed to Vitis in the paper's flow.  Nothing
downstream executes it, so the generator focuses on structural fidelity
(loop nests, interfaces, pragmas) rather than operator body details.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.dataflow.structure import (
    DataflowGraph,
    DataflowKernel,
    DataflowTask,
    TaskKind,
)
from repro.ir.dtypes import DType
from repro.itensor.stream_type import StreamType


@dataclass
class HlsArtifact:
    """Generated HLS source plus per-function index."""

    top_function: str
    source: str
    functions: List[str] = field(default_factory=list)

    @property
    def line_count(self) -> int:
        return self.source.count("\n") + 1


def _ctype(dtype: DType) -> str:
    if dtype.is_float:
        return "float" if dtype.bits >= 32 else "half"
    return f"ap_int<{dtype.bits}>"


def _stream_decl(name: str, fifo: StreamType) -> str:
    elem = _ctype(fifo.dtype)
    if fifo.vector_shape is not None:
        elem = f"hls::vector<{elem}, {fifo.token_elements}>"
    return (f"  hls::stream<{elem}> {name};\n"
            f"#pragma HLS STREAM variable={name} depth={fifo.depth}")


def _loop_nest(loop_nest, body_lines: List[str], indent: str = "  ") -> List[str]:
    lines: List[str] = []
    depth = 0
    for trip, step in loop_nest:
        pad = indent * (depth + 1)
        lines.append(f"{pad}for (int i{depth} = 0; i{depth} < {trip}; ++i{depth}) {{")
        depth += 1
    pad = indent * (depth + 1)
    lines.append(f"{pad}#pragma HLS PIPELINE II=1")
    lines.extend(f"{pad}{line}" for line in body_lines)
    for level in range(depth, 0, -1):
        lines.append(f"{indent * level}}}")
    return lines


def _emit_task(kernel: DataflowKernel, task: DataflowTask) -> str:
    """Emit one dataflow task as an HLS function."""
    lines = [f"void {task.name}("]
    params = []
    for index, itype in enumerate(task.input_types):
        params.append(f"    hls::stream<{_ctype(itype.dtype)}>& in{index}")
    for index, itype in enumerate(task.output_types):
        params.append(f"    hls::stream<{_ctype(itype.dtype)}>& out{index}")
    if task.kind in (TaskKind.DMA_LOAD, TaskKind.DMA_STORE):
        params.append("    const ap_uint<512>* mem")
    lines.append(",\n".join(params) if params else "    ")
    lines.append(") {")

    if task.buffer is not None:
        dims = "".join(f"[{d}]" for d in task.buffer.shape)
        lines.append(f"  {_ctype(task.buffer.dtype)} buffer{dims};")
        lines.append("#pragma HLS ARRAY_PARTITION variable=buffer cyclic factor=2 dim=1")
        if task.buffer.double_buffered:
            lines.append("  // ping-pong: implemented as a double buffer by HLS dataflow")

    body: List[str] = []
    if task.kind is TaskKind.COMPUTE:
        body.append("#pragma HLS UNROLL "
                    f"factor={kernel.tiled.config.unroll_factor}")
        body.append("// tiled compute body generated from the Linalg op "
                    f"'{kernel.kind}'")
        for index in range(len(task.input_types)):
            body.append(f"auto v{index} = in{index}.read();")
        if task.output_types:
            body.append("out0.write(accumulate(/* ... */));")
    elif task.kind is TaskKind.DMA_LOAD:
        body.append("auto burst = mem[offset++];")
        body.append("out0.write(unpack(burst));")
    elif task.kind is TaskKind.DMA_STORE:
        body.append("auto token = in0.read();")
        body.append("mem[offset++] = pack(token);")
    elif task.kind is TaskKind.CONVERTER:
        body.append("// stream layout conversion through the ping-pong buffer")
        body.append("buffer[write_index()] = in0.read();")
        body.append("out0.write(buffer[read_index()]);")

    loop_nest = task.loop_nest or [(1, 1)]
    lines.extend(_loop_nest(loop_nest, body))
    lines.append("}")
    return "\n".join(lines)


def generate_hls(graph: DataflowGraph, top_name: Optional[str] = None) -> HlsArtifact:
    """Generate the full HLS C++ artefact for a compiled dataflow graph."""
    top = top_name or f"{graph.name}_top"
    sections: List[str] = [
        "// Generated by the StreamTensor reproduction compiler",
        "#include <hls_stream.h>",
        "#include <hls_vector.h>",
        "#include <ap_int.h>",
        "",
    ]
    functions: List[str] = []

    for kernel in graph.topological_order():
        for task in kernel.tasks:
            sections.append(_emit_task(kernel, task))
            sections.append("")
            functions.append(task.name)

    # Top-level dataflow region.
    sections.append(f"void {top}(const ap_uint<512>* gmem_in, ap_uint<512>* gmem_out) {{")
    sections.append("#pragma HLS INTERFACE m_axi port=gmem_in bundle=hbm0")
    sections.append("#pragma HLS INTERFACE m_axi port=gmem_out bundle=hbm1")
    sections.append("#pragma HLS DATAFLOW")
    for edge in graph.stream_edges():
        sections.append(_stream_decl(f"fifo_{edge.uid}", edge.stream_type()))
    for kernel in graph.topological_order():
        for task in kernel.tasks:
            sections.append(f"  {task.name}(/* wired by connectivity codegen */);")
    sections.append("}")

    return HlsArtifact(top_function=top, source="\n".join(sections),
                       functions=functions)
