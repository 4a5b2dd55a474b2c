"""Tests codifying the paper's qualitative claims and contributions.

Each test pins one claim from the paper's introduction, Section 7 (the
comparison with Stream-HLS), or the conclusions, expressed as a property of
this reproduction rather than a number.
"""

import math

from repro.compiler import CompilerOptions, StreamTensorCompiler
from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.fusion import fuse_kernels
from repro.dataflow.structure import EdgeKind, TaskKind
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8
from repro.ir.types import TensorType
from repro.itensor.converter import infer_converter
from repro.itensor.itensor_type import itensor_from_tiling
from repro.models.config import GPT2
from repro.models.transformer import build_prefill_block
from repro.platform.fpga import AMD_U55C


class TestContribution2ItensorTypeSystem:
    """Contribution 2: the itensor type encodes stream information, making
    mismatches detectable that plain tensor types cannot express."""

    def test_same_tensor_type_different_stream_order_is_distinguished(self):
        """The Graphene failure mode of Section 3.1.1: a row-major producer
        and a column-major consumer share the same tensor type but must not
        be connected by a plain FIFO."""
        tensor = TensorType((64, 64), INT8)
        row_major = itensor_from_tiling(tensor, (16, 16))
        col_major = itensor_from_tiling(tensor, (16, 16), loop_order=[1, 0])
        assert row_major.tensor_shape() == col_major.tensor_shape()
        assert not row_major.is_compatible_with(col_major)

    def test_converter_reconciles_any_two_layouts_of_the_same_tensor(self):
        """Section 7: unlike Stream-HLS, any two kernels are fuseable by
        design — a converter always exists, at some memory cost."""
        tensor = TensorType((64, 64), INT8)
        views = [
            itensor_from_tiling(tensor, (16, 16)),
            itensor_from_tiling(tensor, (16, 16), loop_order=[1, 0]),
            itensor_from_tiling(tensor, (8, 32)),
            itensor_from_tiling(tensor, (64, 8)),
        ]
        for producer in views:
            for consumer in views:
                spec = infer_converter(producer, consumer)
                assert math.prod(spec.buf_shape) <= 64 * 64


class TestStreamHlsComparison:
    """Section 7: Stream-HLS requires equal write/read counts and matching
    orders; StreamTensor fuses kernels even when both conditions fail."""

    def test_fusion_with_unequal_read_write_counts(self):
        """A matmul consumer re-reads the producer's tensor many times (reads
        != writes), yet the pair still fuses onto a stream edge."""
        builder = GraphBuilder()
        x = builder.input((64, 64), INT8)
        w = builder.weight((64, 64), INT8)
        first = builder.matmul(x, w, name="producer")
        second = builder.matmul(first, w, name="consumer")
        builder.output(second)
        dataflow = convert_to_dataflow(builder.build())
        fuse_kernels(dataflow, c_max=AMD_U55C.onchip_memory_bytes)

        edge = next(e for e in dataflow.internal_edges()
                    if e.producer.name == "producer")
        assert edge.kind is EdgeKind.STREAM
        # Reads exceed writes because of re-access; a converter bridges them.
        assert edge.consumer_type.num_iterations > edge.producer_type.num_iterations
        assert edge.converter is not None

    def test_whole_transformer_block_fuses_not_just_sublayers(self):
        """Stream-HLS only reports attention and FFN separately; StreamTensor
        fuses the entire block into one dataflow accelerator."""
        graph = build_prefill_block(GPT2, 128)
        options = CompilerOptions(generate_code=False)
        result = StreamTensorCompiler(options).compile(graph, GPT2)
        assert result.fusion_plan.num_groups == 1
        assert result.report.fits_on_chip

    def test_dmas_are_generated_automatically(self):
        """Section 7: Stream-HLS cannot generate external-memory DMAs; here
        every external interface gets one without manual effort."""
        graph = build_prefill_block(GPT2, 64)
        options = CompilerOptions(generate_code=False)
        result = StreamTensorCompiler(options).compile(graph, GPT2)
        dma_tasks = [t for k in result.dataflow_graph.kernels for t in k.tasks
                     if t.kind in (TaskKind.DMA_LOAD, TaskKind.DMA_STORE)]
        external_edges = (result.dataflow_graph.external_input_edges()
                          + result.dataflow_graph.external_output_edges())
        assert len(dma_tasks) >= len(external_edges)


class TestPitfallResolutions:
    """Section 1.3 pitfalls are each resolved by a dedicated mechanism."""

    def test_pitfall1_interkernel_balance(self):
        """Intensity-driven unrolling narrows the latency gap between kernels."""
        from repro.dse.explorer import build_tiling_space

        def balance_ratio(space):
            latencies = [node.latency_estimate() for node in space.nodes]
            return max(latencies) / min(latencies)

        graph = build_prefill_block(GPT2, 64)
        unbalanced = build_tiling_space(graph, 16, len(graph.ops))
        for node in unbalanced.nodes:
            node.unroll_factor = 1
        balanced = build_tiling_space(graph, 16, 512)
        assert balance_ratio(balanced) <= balance_ratio(unbalanced)

    def test_pitfall3_fusion_respects_memory_budget(self):
        """Algorithm 2 never spends more converter memory per fused group
        than the budget it was given."""
        graph = build_prefill_block(GPT2, 128)
        from repro.dse.explorer import build_tiling_space
        space = build_tiling_space(graph, 16, 128)
        for budget in (32e3, 256e3, 2e6):
            dataflow = convert_to_dataflow(graph, space.to_configs())
            plan = fuse_kernels(dataflow, c_max=budget)
            assert all(cost <= budget for cost in plan.costs)

    def test_pitfall4_fifo_depths_bounded_by_token_count(self, gpt2_compiled):
        """The LP never sizes a FIFO beyond the number of tokens that ever
        cross it (the trivially safe upper bound)."""
        for edge in gpt2_compiled.dataflow_graph.stream_edges():
            assert edge.fifo_depth <= max(2, edge.token_count)
