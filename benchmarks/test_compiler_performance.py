"""Compiler-throughput benchmarks: wall-clock cost of the main pipeline stages.

These are conventional pytest-benchmark measurements (not paper artefacts):
they track how long the reproduction's compiler itself takes on a full
transformer block, which is the quantity Figure 10c reports for the original
implementation.  Each timed run records its median seconds in
``BENCH_compiler.json`` (see ``serving_artifact.record_compiler``).
"""

import pytest

import serving_artifact
from repro.compiler import CompilerOptions, StreamTensorCompiler, pipeline
from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.fusion import fuse_kernels
from repro.dse.explorer import build_tiling_space
from repro.models.config import GPT2, LLAMA
from repro.models.transformer import build_decode_block, build_prefill_block
from repro.platform.fpga import AMD_U55C
from repro.platform.hls_profiler import HlsProfiler
from repro.resource.fifo_sizing import size_graph_fifos


@pytest.mark.benchmark(group="compiler")
def test_benchmark_full_compilation_gpt2(benchmark):
    graph = build_decode_block(GPT2, kv_len=64)
    options = CompilerOptions()

    result = benchmark(lambda: StreamTensorCompiler(options).compile(graph, GPT2))
    assert result.fusion_plan.num_groups == 1
    serving_artifact.record_compiler(benchmark)


@pytest.mark.benchmark(group="compiler")
def test_benchmark_full_compilation_llama_prefill(benchmark):
    graph = build_prefill_block(LLAMA, 128)
    options = CompilerOptions(generate_code=False)

    result = benchmark(lambda: StreamTensorCompiler(options).compile(graph, LLAMA))
    assert result.report.num_kernels > 5
    serving_artifact.record_compiler(benchmark)


@pytest.mark.benchmark(group="compiler")
def test_benchmark_full_compilation_gpt2_prefill_explore(benchmark,
                                                        monkeypatch):
    # The tiling exploration populates every trial's space but converts and
    # fuses only the layouts whose latency bound can still win: here the
    # winner's alone.
    graph = build_prefill_block(GPT2, 256)
    options = CompilerOptions(explore_tiling=True)

    result = benchmark(lambda: StreamTensorCompiler(options).compile(graph, GPT2))
    assert (result.tiling_space.default_tile_size,
            result.tiling_space.overall_unroll_size) == (64, 256)

    conversions = []
    convert = pipeline.convert_to_dataflow
    monkeypatch.setattr(pipeline, "convert_to_dataflow",
                        lambda *args: conversions.append(args) or convert(*args))
    StreamTensorCompiler(options).compile(graph, GPT2)
    assert len(conversions) == 1
    serving_artifact.record_compiler(benchmark, conversions=len(conversions))


@pytest.mark.benchmark(group="compiler")
def test_benchmark_kernel_fusion_stage(benchmark):
    graph = build_prefill_block(GPT2, 256)
    space = build_tiling_space(graph, 16, 128)
    configs = space.to_configs()

    def fuse():
        dataflow = convert_to_dataflow(graph, configs)
        return fuse_kernels(dataflow, c_max=AMD_U55C.onchip_memory_bytes)

    plan = benchmark(fuse)
    assert plan.num_groups == 1
    serving_artifact.record_compiler(benchmark)


@pytest.mark.benchmark(group="compiler")
def test_benchmark_fifo_sizing_stage(benchmark):
    graph = build_prefill_block(GPT2, 256)
    space = build_tiling_space(graph, 16, 128)
    dataflow = convert_to_dataflow(graph, space.to_configs())
    fuse_kernels(dataflow, c_max=AMD_U55C.onchip_memory_bytes)
    timings = HlsProfiler(AMD_U55C).profile_graph(dataflow)

    result = benchmark(lambda: size_graph_fifos(dataflow, timings))
    assert result.lp_status in ("optimal", "no-stream-edges")
    serving_artifact.record_compiler(benchmark)
