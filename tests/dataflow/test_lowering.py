"""Tests for itensor folding, vectorisation, packing and bufferization."""

import math

from repro.dataflow.bufferize import bufferize
from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.folding import fold_itensors
from repro.dataflow.fusion import fuse_kernels
from repro.dataflow.materialize import materialize
from repro.dataflow.packing import (
    pack_interface,
    pack_kernel_interfaces,
    widen_for_bus,
)
from repro.dataflow.structure import DEFAULT_FIFO_DEPTH
from repro.dataflow.tiling import TilingConfig
from repro.dataflow.vectorize import choose_vector_shape, vectorize_graph, vectorize_itensor
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8, UINT8
from repro.ir.types import TensorType
from repro.itensor.itensor_type import itensor_from_tiling


def compiled_chain(configs=None):
    builder = GraphBuilder("net")
    x = builder.input((64, 64), INT8)
    w = builder.weight((64, 64), INT8)
    y = builder.matmul(x, w, name="mm")
    z = builder.gelu(y, name="act")
    builder.output(z)
    dataflow = convert_to_dataflow(builder.build(), configs)
    fuse_kernels(dataflow, c_max=1e12)
    materialize(dataflow)
    return dataflow


class TestFolding:
    def test_matching_dma_load_is_folded(self):
        dataflow = compiled_chain()
        result = fold_itensors(dataflow)
        assert result.folded_edges >= 1
        assert result.buffer_bytes_saved > 0

    def test_parameter_dmas_are_not_folded(self):
        dataflow = compiled_chain()
        result = fold_itensors(dataflow)
        for kernel in dataflow.kernels:
            for task in kernel.tasks:
                if task.is_parameter:
                    assert task.name not in result.folded_task_names
                    assert task.buffer is not None

    def test_folded_tasks_lose_their_buffer(self):
        dataflow = compiled_chain()
        result = fold_itensors(dataflow)
        for kernel in dataflow.kernels:
            for task in kernel.tasks:
                if task.name in result.folded_task_names:
                    assert task.buffer is None


class TestVectorization:
    def test_choose_vector_shape_divides_element(self):
        itype = itensor_from_tiling(TensorType((64, 64), INT8), (16, 16))
        shape = choose_vector_shape(itype, 8)
        assert all(e % v == 0 for e, v in zip(itype.element_shape, shape))
        assert math.prod(shape) <= 16 * 16

    def test_vectorize_itensor_attaches_shape(self):
        itype = itensor_from_tiling(TensorType((64, 64), INT8), (16, 16))
        assert vectorize_itensor(itype, 8).vector_shape is not None

    def test_width_one_means_scalar_vector(self):
        itype = itensor_from_tiling(TensorType((64, 64), INT8), (16, 16))
        assert choose_vector_shape(itype, 1) == (1, 1)

    def test_vectorize_graph_updates_stream_edges(self):
        dataflow = compiled_chain()
        result = vectorize_graph(dataflow)
        assert result.vectorized_edges == len(dataflow.stream_edges())
        for edge in dataflow.stream_edges():
            assert edge.producer_type.vector_shape is not None
            assert edge.consumer_type.vector_shape is not None
            # The consumer's unroll factor bounds the vector it reads.
            unroll = edge.consumer.tiled.config.unroll_factor
            assert math.prod(edge.consumer_type.vector_shape) <= unroll

    @staticmethod
    def unrolled_chain(tile, mm_unroll, act_unroll):
        """The mm -> act chain, vectorised, and its one stream edge."""
        dataflow = compiled_chain({
            "mm": TilingConfig([tile] * 3, unroll_factor=mm_unroll),
            "act": TilingConfig([tile] * 2, unroll_factor=act_unroll),
        })
        vectorize_graph(dataflow)
        (edge,) = dataflow.stream_edges()
        return edge

    def test_vectorization_inferred_from_unroll(self):
        # The consumer's unroll factor sets the vector; the producer's
        # does not.
        wide = self.unrolled_chain(16, mm_unroll=1, act_unroll=32)
        assert math.prod(wide.producer_type.vector_shape) == 32
        assert wide.producer_type.vector_shape == wide.consumer_type.vector_shape
        narrow = self.unrolled_chain(16, mm_unroll=32, act_unroll=1)
        assert narrow.consumer_type.vector_shape == (1, 1)

    def test_vectorization_bounded_by_tile(self):
        edge = self.unrolled_chain(2, mm_unroll=1, act_unroll=1024)
        assert edge.consumer_type.vector_shape == edge.consumer_type.element_shape
        assert math.prod(edge.consumer_type.vector_shape) <= 2 * 2


class TestPacking:
    def test_widen_fills_bus(self):
        vector = widen_for_bus((16, 16), UINT8, bus_bits=512)
        assert math.prod(vector) == 64

    def test_widen_never_exceeds_tile(self):
        vector = widen_for_bus((2, 2), UINT8, bus_bits=512)
        assert math.prod(vector) <= 4

    def test_pack_interface_shapes(self):
        """The paper's example: 64x64 with 16x16 tiles packs to 4x4x16x16 and
        widens to 4x4x2x2 vectors of 8x8 elements (512-bit bus, 8-bit data)."""
        tensor = TensorType((64, 64), UINT8)
        itype = itensor_from_tiling(tensor, (16, 16))
        layout = pack_interface(tensor, itype, bus_bits=512)
        assert layout.outer_shape + layout.tile_shape == (4, 4, 16, 16)
        assert layout.vector_shape == (8, 8)
        assert layout.widened_shape() == (4, 4, 2, 2)
        assert math.prod(layout.vector_shape) * layout.dtype.bits == 512

    def test_pack_kernel_interfaces_marks_parameters_static(self):
        dataflow = compiled_chain()
        result = pack_kernel_interfaces(dataflow)
        assert result.interfaces == len(dataflow.memory_edges())
        assert result.parameter_interfaces >= 1
        # Only dynamic tensors contribute to runtime packing cost.
        total = sum(layout.total_bytes for layout in result.layouts)
        assert result.runtime_pack_bytes < total


class TestBufferize:
    def test_stream_edges_become_fifos(self):
        dataflow = compiled_chain()
        result = bufferize(dataflow)
        assert len(result.fifos) == len(dataflow.stream_edges())
        for edge in dataflow.stream_edges():
            fifo = result.fifos[edge.uid]
            assert fifo == edge.stream_type()
            assert fifo.depth == (edge.fifo_depth or DEFAULT_FIFO_DEPTH)

    def test_untyped_stream_edge_gets_no_fifo(self):
        dataflow = compiled_chain()
        edge = dataflow.stream_edges()[0]
        edge.producer_type = edge.consumer_type = None
        result = bufferize(dataflow)
        assert edge.uid not in result.fifos
        assert len(result.fifos) == len(dataflow.stream_edges()) - 1
        assert result.total_fifo_bytes == sum(
            fifo.capacity_bytes for fifo in result.fifos.values())

    def test_buffers_collected_from_tasks(self):
        dataflow = compiled_chain()
        result = bufferize(dataflow)
        assert result.total_buffer_bytes > 0
        assert result.total_bytes == (result.total_fifo_bytes
                                      + result.total_buffer_bytes)
