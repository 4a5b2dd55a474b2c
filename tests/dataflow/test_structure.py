"""Tests for the dataflow structure IR (kernels, edges, graphs)."""

import pytest

from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.fusion import fuse_kernels
from repro.dataflow.structure import (
    DEFAULT_FIFO_DEPTH,
    DataflowEdge,
    DataflowGraph,
    DataflowKernel,
    DataflowTask,
    EdgeKind,
    Port,
    TaskKind,
)
from repro.ir.affine import AffineMap
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8
from repro.ir.types import TensorType
from repro.itensor.converter import infer_converter
from repro.itensor.itensor_type import ITensorError, ITensorType, itensor_from_tiling
from repro.itensor.stream_type import BufferType
from repro.itensor.verify import StreamVerificationError


def make_kernel(name):
    return DataflowKernel(name=name)


def make_edge(producer, consumer, shape=(16, 16)):
    tensor = TensorType(shape, INT8)
    itype = itensor_from_tiling(tensor, (4, 4))
    return DataflowEdge(
        producer=producer, producer_port="out0",
        consumer=consumer, consumer_port="in0",
        producer_type=itype, consumer_type=itype, tensor=tensor,
    )


class TestGraphQueries:
    def test_predecessors_and_successors(self):
        graph = DataflowGraph()
        a, b = graph.add_kernel(make_kernel("a")), graph.add_kernel(make_kernel("b"))
        graph.add_edge(make_edge(a, b))
        assert graph.predecessors(b) == [a]
        assert [e.consumer for e in graph.out_edges(a)] == [b]

    def test_kernel_by_name_missing_raises(self):
        with pytest.raises(KeyError):
            DataflowGraph().kernel_by_name("x")

    def test_duplicate_kernel_names_rejected(self):
        graph = DataflowGraph()
        graph.add_kernel(make_kernel("a"))
        graph.add_kernel(make_kernel("a"))
        with pytest.raises(ValueError, match="duplicate"):
            graph.verify()

    def test_cycle_detection(self):
        graph = DataflowGraph()
        a, b = graph.add_kernel(make_kernel("a")), graph.add_kernel(make_kernel("b"))
        graph.add_edge(make_edge(a, b))
        graph.add_edge(make_edge(b, a))
        with pytest.raises(ValueError, match="cycle"):
            graph.topological_order()

    def test_edge_referencing_foreign_kernel_rejected(self):
        graph = DataflowGraph()
        a = graph.add_kernel(make_kernel("a"))
        foreign = make_kernel("foreign")
        graph.add_edge(make_edge(a, foreign))
        with pytest.raises(ValueError, match="not in the graph"):
            graph.verify()

    def test_gapped_itensor_type_rejected(self):
        graph = DataflowGraph()
        a, b = graph.add_kernel(make_kernel("a")), graph.add_kernel(make_kernel("b"))
        edge = graph.add_edge(make_edge(a, b))
        # 2x2 tokens stepped by 4: three quarters of the tensor never stream.
        edge.consumer_type = ITensorType((2, 2), INT8, (4, 4), (4, 4),
                                         AffineMap.identity(2))
        with pytest.raises(StreamVerificationError, match="gaps"):
            graph.verify()

    def test_stream_token_mismatch_needs_a_converter(self):
        graph = DataflowGraph()
        a, b = graph.add_kernel(make_kernel("a")), graph.add_kernel(make_kernel("b"))
        edge = graph.add_edge(make_edge(a, b))
        edge.consumer_type = itensor_from_tiling(edge.tensor, (8, 8))
        graph.verify()  # a memory edge re-tiles through external memory
        edge.kind = EdgeKind.STREAM
        with pytest.raises(StreamVerificationError, match="token count"):
            graph.verify()
        edge.converter = infer_converter(edge.producer_type, edge.consumer_type)
        graph.verify()

    def test_converter_reconciles_a_stream_layout_mismatch(self):
        graph = DataflowGraph()
        a, b = graph.add_kernel(make_kernel("a")), graph.add_kernel(make_kernel("b"))
        edge = graph.add_edge(make_edge(a, b))
        edge.kind = EdgeKind.STREAM
        edge.consumer_type = itensor_from_tiling(edge.tensor, (4, 4),
                                                 loop_order=[1, 0])
        assert edge.needs_converter
        edge.converter = infer_converter(edge.producer_type, edge.consumer_type)
        graph.verify()

    def test_endpoints_over_different_tensors_rejected(self):
        graph = DataflowGraph()
        a, b = graph.add_kernel(make_kernel("a")), graph.add_kernel(make_kernel("b"))
        edge = graph.add_edge(make_edge(a, b))
        # No converter can turn a 16x16 stream into an 8x32 one.
        edge.consumer_type = itensor_from_tiling(TensorType((8, 32), INT8), (4, 4))
        with pytest.raises(ITensorError, match="same tensor"):
            graph.verify()

    def test_external_endpoint_coverage_checked(self):
        graph = DataflowGraph()
        a = graph.add_kernel(make_kernel("a"))
        gapped = ITensorType((2, 2), INT8, (4, 4), (4, 4), AffineMap.identity(2))
        graph.add_edge(DataflowEdge(producer=None, producer_port=None,
                                    consumer=a, consumer_port="in0",
                                    producer_type=None, consumer_type=gapped,
                                    tensor=TensorType((16, 16), INT8)))
        with pytest.raises(StreamVerificationError, match="gaps"):
            graph.verify()

    def test_converted_and_fused_graph_verifies(self):
        builder = GraphBuilder("net")
        x = builder.input((64, 64), INT8)
        w = builder.weight((64, 64), INT8)
        builder.output(builder.gelu(builder.matmul(x, w, name="mm"), name="act"))
        dataflow = convert_to_dataflow(builder.build())
        fuse_kernels(dataflow, c_max=1e12)
        assert dataflow.stream_edges()
        dataflow.verify()

    def test_fusion_groups(self):
        graph = DataflowGraph()
        a, b = graph.add_kernel(make_kernel("a")), graph.add_kernel(make_kernel("b"))
        a.fusion_index, b.fusion_index = 1, 2
        groups = graph.fusion_groups()
        assert groups[1] == [a] and groups[2] == [b]


class TestEdgeProperties:
    def test_token_count_from_itensor(self):
        edge = make_edge(make_kernel("a"), make_kernel("b"))
        assert edge.token_count == 16

    def test_stream_type_defaults_to_depth_2(self):
        edge = make_edge(make_kernel("a"), make_kernel("b"))
        assert edge.stream_type().depth == 2
        edge.fifo_depth = 7
        assert edge.stream_type().depth == 7

    def test_stream_type_carries_dtype_and_vector_shape(self):
        edge = make_edge(make_kernel("a"), make_kernel("b"))
        edge.producer_type = edge.producer_type.with_vector_shape((1, 4))
        fifo = edge.stream_type()
        assert fifo.dtype == INT8
        assert fifo.vector_shape == (1, 4)
        assert fifo.capacity_bytes == DEFAULT_FIFO_DEPTH * 4

    def test_stream_type_falls_back_to_the_consumer_type(self):
        edge = make_edge(make_kernel("a"), make_kernel("b"))
        edge.producer_type = None
        edge.consumer_type = edge.consumer_type.with_vector_shape((2, 2))
        edge.fifo_depth = 5
        fifo = edge.stream_type()
        assert (fifo.depth, fifo.vector_shape) == (5, (2, 2))

    def test_stream_type_of_untyped_edge_raises(self):
        edge = make_edge(make_kernel("a"), make_kernel("b"))
        edge.producer_type = edge.consumer_type = None
        with pytest.raises(ValueError, match="no itensor type"):
            edge.stream_type()

    def test_needs_converter_false_for_matching_types(self):
        edge = make_edge(make_kernel("a"), make_kernel("b"))
        assert not edge.needs_converter

    def test_external_edges(self):
        edge = DataflowEdge(producer=None, producer_port=None,
                            consumer=make_kernel("a"), consumer_port="in0",
                            producer_type=None,
                            consumer_type=itensor_from_tiling(
                                TensorType((8, 8), INT8), (4, 4)),
                            tensor=TensorType((8, 8), INT8))
        assert edge.is_external_input and edge.consumer is not None
        assert edge.name() == "host->a"


class TestKernelAndTask:
    def test_port_lookup(self):
        kernel = make_kernel("k")
        itype = itensor_from_tiling(TensorType((8, 8), INT8), (4, 4))
        kernel.outputs.append(Port("out0", itype, TensorType((8, 8), INT8)))
        assert kernel.output_port("out0").name == "out0"
        with pytest.raises(KeyError):
            kernel.output_port("nope")

    def test_local_buffer_bytes_sums_tasks(self):
        kernel = make_kernel("k")
        kernel.tasks.append(DataflowTask("t0", TaskKind.CONVERTER,
                                         buffer=BufferType((4, 4), INT8)))
        kernel.tasks.append(DataflowTask("t1", TaskKind.COMPUTE))
        assert kernel.local_buffer_bytes() == 32.0


class TestMemoryAccounting:
    def test_unfused_counts_double_buffered_tensors(self):
        builder = GraphBuilder()
        x = builder.input((64, 64), INT8)
        builder.output(builder.gelu(builder.gelu(x, name="g0"), name="g1"))
        dataflow = convert_to_dataflow(builder.build())
        assert dataflow.intermediate_bytes_unfused() == 2 * 64 * 64

    def test_fused_counts_only_stream_edges(self):
        builder = GraphBuilder()
        x = builder.input((64, 64), INT8)
        builder.output(builder.gelu(builder.gelu(x, name="g0"), name="g1"))
        dataflow = convert_to_dataflow(builder.build())
        assert dataflow.intermediate_bytes_fused() == 0.0
        fuse_kernels(dataflow, c_max=1e9)
        assert dataflow.intermediate_bytes_fused() > 0.0
        assert (dataflow.intermediate_bytes_fused()
                < dataflow.intermediate_bytes_unfused())
