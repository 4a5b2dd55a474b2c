"""StreamTensor reproduction: a compiler for stream-based dataflow accelerators.

This package reproduces the system described in "StreamTensor: Make Tensors
Stream in Dataflow Accelerators for LLMs" (MICRO 2025): an end-to-end
compiler that lowers transformer models to stream-based dataflow accelerator
designs, built around an iterative tensor (itensor) type system, stream-based
kernel fusion, hierarchical design-space exploration, and LP-based FIFO
sizing.  Beyond the paper, :mod:`repro.serving` adds a continuous-batching
serving tier over the analytical accelerator model.  See README.md for a
quickstart, DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison.

Typical usage::

    from repro import compile_model_block, GPT2, build_decode_block

    graph = build_decode_block(GPT2, kv_len=64)
    result = compile_model_block(graph, GPT2)
    print(result.report)
"""

from repro.compiler import (
    CompilationResult,
    CompileReport,
    CompilerOptions,
    StreamTensorCompiler,
    compile_model_block,
)
from repro.itensor import ITensorType, StreamType, infer_converter
from repro.models import (
    GEMMA,
    GPT2,
    LLAMA,
    MODEL_CONFIGS,
    ModelConfig,
    QWEN,
    Workload,
    build_decode_block,
    build_prefill_block,
    get_model_config,
)
from repro.platform import AMD_U280, AMD_U55C, NVIDIA_2080TI, NVIDIA_A100
from repro.runtime import GenerationResult, InferenceSession
from repro.serving import (
    ClusterReport,
    SchedulerConfig,
    ServingCluster,
    ServingReport,
    burst_trace,
    poisson_trace,
)

__version__ = "0.2.0"

__all__ = [
    "AMD_U280",
    "AMD_U55C",
    "ClusterReport",
    "CompilationResult",
    "CompileReport",
    "CompilerOptions",
    "GEMMA",
    "GenerationResult",
    "GPT2",
    "ITensorType",
    "InferenceSession",
    "LLAMA",
    "MODEL_CONFIGS",
    "ModelConfig",
    "NVIDIA_2080TI",
    "NVIDIA_A100",
    "QWEN",
    "SchedulerConfig",
    "ServingCluster",
    "ServingReport",
    "StreamTensorCompiler",
    "StreamType",
    "Workload",
    "__version__",
    "build_decode_block",
    "build_prefill_block",
    "burst_trace",
    "compile_model_block",
    "get_model_config",
    "infer_converter",
    "poisson_trace",
]
