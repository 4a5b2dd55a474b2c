"""Tests for DMA/converter materialisation and converter CSE."""

import pytest

from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.fusion import fuse_kernels
from repro.dataflow.materialize import (
    materialize,
    materialize_converter,
    materialize_dma,
    remove_redundant_converters,
)
from repro.dataflow.structure import TaskKind
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8


def fused_matmul_chain():
    builder = GraphBuilder("net")
    x = builder.input((64, 64), INT8)
    w1 = builder.weight((64, 64), INT8)
    w2 = builder.weight((64, 64), INT8)
    y = builder.matmul(x, w1, name="mm1")
    z = builder.matmul(y, w2, name="mm2")
    builder.output(z)
    dataflow = convert_to_dataflow(builder.build())
    fuse_kernels(dataflow, c_max=1e12)
    return dataflow


class TestMaterialize:
    def test_memory_edges_get_dma_tasks(self):
        dataflow = fused_matmul_chain()
        kinds = [t.kind for t in materialize(dataflow)]
        assert TaskKind.DMA_LOAD in kinds
        assert TaskKind.DMA_STORE in kinds

    def test_mismatched_stream_edge_gets_converter_task(self):
        dataflow = fused_matmul_chain()
        tasks = materialize(dataflow)
        converters = [t for t in tasks if t.kind is TaskKind.CONVERTER]
        stream_mismatches = [e for e in dataflow.stream_edges() if e.needs_converter]
        assert len(converters) == len(stream_mismatches)

    def test_dma_tasks_attached_to_owning_kernels(self):
        dataflow = fused_matmul_chain()
        materialize(dataflow)
        mm1 = dataflow.kernel_by_name("mm1")
        assert any(t.kind is TaskKind.DMA_LOAD for t in mm1.tasks)

    def test_converter_task_carries_algorithm1_buffer(self):
        dataflow = fused_matmul_chain()
        materialize(dataflow)
        for edge in dataflow.stream_edges():
            if edge.converter is None:
                continue
            task = next(t for t in edge.producer.tasks
                        if t.name == f"converter_{edge.uid}")
            assert task.kind is TaskKind.CONVERTER
            assert task.buffer.shape == edge.converter.buf_shape


class TestMaterializeHelpers:
    def test_materialize_dma_direction_validation(self):
        dataflow = fused_matmul_chain()
        edge = dataflow.memory_edges()[0]
        with pytest.raises(ValueError):
            materialize_dma(edge, "sideways")

    def test_dma_load_and_store_types(self):
        dataflow = fused_matmul_chain()
        edge = next(e for e in dataflow.memory_edges() if e.consumer is not None)
        load = materialize_dma(edge, "load")
        assert load.kind is TaskKind.DMA_LOAD
        assert load.output_types and not load.input_types

    def test_materialize_converter_requires_types(self):
        dataflow = fused_matmul_chain()
        edge = dataflow.external_input_edges()[0]
        with pytest.raises(ValueError):
            materialize_converter(edge)


class TestConverterCse:
    def test_shared_consumers_deduplicate_converters(self):
        builder = GraphBuilder()
        x = builder.input((64, 64), INT8)
        w = builder.weight((64, 64), INT8)
        y = builder.matmul(x, w, name="producer")
        a = builder.matmul(y, w, name="consumer_a")
        b = builder.matmul(y, w, name="consumer_b")
        builder.output(builder.add(a, b))
        dataflow = convert_to_dataflow(builder.build())
        fuse_kernels(dataflow, c_max=1e12)
        removed = remove_redundant_converters(dataflow)
        assert removed == 1

    def test_no_duplicates_nothing_removed(self):
        dataflow = fused_matmul_chain()
        assert remove_redundant_converters(dataflow) == 0
