"""Tests for the analytical HLS profiler."""

from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.fusion import fuse_kernels
from repro.dataflow.tiling import TilingConfig
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8
from repro.ir.ops import LinalgOp
from repro.platform.fpga import AMD_U55C
from repro.models.config import GPT2
from repro.platform.hls_profiler import HlsProfiler, parameter_packing_seconds
from repro.runtime.session import InferenceSession


def matmul_dataflow(unroll=16):
    builder = GraphBuilder("net")
    x = builder.input((64, 64), INT8)
    w = builder.weight((64, 64), INT8)
    builder.output(builder.matmul(x, w, name="mm"))
    configs = {"mm": TilingConfig([16, 16, 16], unroll_factor=unroll)}
    dataflow = convert_to_dataflow(builder.build(), configs)
    fuse_kernels(dataflow, c_max=1e9)
    return dataflow


class TestProfileKernel:
    def test_profile_has_positive_metrics(self):
        dataflow = matmul_dataflow()
        profiler = HlsProfiler(AMD_U55C)
        profile = profiler.profile_kernel(dataflow.kernel_by_name("mm"))
        assert profile.pipeline_ii >= 1.0
        assert profile.initial_delay > profile.pipeline_ii
        assert profile.latency >= profile.initial_delay
        assert profile.dsps > 0

    def test_more_unroll_means_lower_ii(self):
        profiler = HlsProfiler(AMD_U55C)
        slow = profiler.profile_kernel(matmul_dataflow(unroll=1).kernel_by_name("mm"))
        fast = profiler.profile_kernel(matmul_dataflow(unroll=64).kernel_by_name("mm"))
        assert fast.pipeline_ii < slow.pipeline_ii
        assert fast.dsps > slow.dsps

    def test_memory_share_limits_parameter_kernels(self):
        profiler = HlsProfiler(AMD_U55C)
        kernel = matmul_dataflow(unroll=256).kernel_by_name("mm")
        full = profiler.profile_kernel(kernel, memory_share=1.0)
        starved = profiler.profile_kernel(kernel, memory_share=0.01)
        assert starved.pipeline_ii >= full.pipeline_ii

    def test_bounds_read_from_the_tiled_op(self, monkeypatch):
        kernel = matmul_dataflow().kernel_by_name("mm")
        profiler = HlsProfiler(AMD_U55C)
        expected = profiler.profile_kernel(kernel)

        def no_inference(op):
            raise AssertionError(f"{op.name}: loop bounds re-inferred")

        monkeypatch.setattr(LinalgOp, "loop_bounds", no_inference)
        assert profiler.profile_kernel(kernel) == expected

    def test_external_kernel_returns_empty_profile(self):
        from repro.dataflow.structure import DataflowKernel
        profiler = HlsProfiler(AMD_U55C)
        profile = profiler.profile_kernel(DataflowKernel("ext"))
        assert profile.latency == 0.0


class TestProfileGraph:
    def test_every_kernel_gets_a_timing(self, gpt2_compiled):
        timings = gpt2_compiled.kernel_timings
        names = {k.name for k in gpt2_compiled.dataflow_graph.kernels}
        assert set(timings) == names
        for timing in timings.values():
            assert timing.pipeline_ii >= 1.0
            assert timing.total_tokens >= 1

    def test_profile_written_back_to_kernels(self, gpt2_compiled):
        for kernel in gpt2_compiled.dataflow_graph.kernels:
            assert kernel.profile.latency > 0


class TestVendorToolRuntime:
    def test_hls_time_dominates_profiling_time(self, gpt2_compiled):
        profiler = HlsProfiler(AMD_U55C)
        graph = gpt2_compiled.dataflow_graph
        hls = profiler.estimate_hls_synthesis_seconds(graph)
        prof = profiler.estimate_profiling_seconds(graph)
        assert hls > prof > 0

    def test_vendor_time_far_exceeds_compile_time(self, gpt2_compiled):
        """Figure 10b: HLS dominates, StreamTensor compilation is a tiny part."""
        profiler = HlsProfiler(AMD_U55C)
        hls = profiler.estimate_hls_synthesis_seconds(gpt2_compiled.dataflow_graph)
        compile_seconds = sum(gpt2_compiled.report.stage_seconds.values())
        assert hls > 50 * compile_seconds

    def test_packing_time_scales_with_parameters(self):
        assert parameter_packing_seconds(1e9) > parameter_packing_seconds(1e6)

    def test_session_packs_with_the_same_formula(self):
        """Figure 10b's packing column and the serving cold start agree."""
        session = InferenceSession(GPT2)
        weight_bytes = (GPT2.total_params()
                        * session.model.platform.quantization.weight_bits / 8.0)
        assert session.pack_parameters() == parameter_packing_seconds(weight_bytes)
