"""Tests for Linalg-to-dataflow conversion."""

from repro.dataflow.conversion import convert_to_dataflow
from repro.dataflow.structure import EdgeKind
from repro.dataflow.tiling import TilingConfig
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8


def small_graph():
    builder = GraphBuilder("net")
    x = builder.input((64, 64), INT8)
    w1 = builder.weight((64, 64), INT8)
    w2 = builder.weight((64, 64), INT8)
    h = builder.matmul(x, w1, name="mm1")
    h = builder.gelu(h, name="act")
    y = builder.matmul(h, w2, name="mm2")
    builder.output(y)
    return builder.build()


class TestConversion:
    def test_constant_ops_become_parameter_edges_not_kernels(self):
        dataflow = convert_to_dataflow(small_graph())
        assert {k.name for k in dataflow.kernels} == {"mm1", "act", "mm2"}
        param_edges = [e for e in dataflow.edges if e.is_parameter]
        assert len(param_edges) == 2
        assert all(e.producer is None for e in param_edges)

    def test_all_edges_start_as_memory(self):
        dataflow = convert_to_dataflow(small_graph())
        assert all(e.kind is EdgeKind.MEMORY for e in dataflow.edges)

    def test_internal_edges_carry_both_endpoint_types(self):
        dataflow = convert_to_dataflow(small_graph())
        for edge in dataflow.internal_edges():
            assert edge.producer_type is not None
            assert edge.consumer_type is not None
            assert (edge.producer_type.tensor_shape()
                    == edge.consumer_type.tensor_shape())

    def test_graph_output_becomes_external_edge(self):
        dataflow = convert_to_dataflow(small_graph())
        outs = dataflow.external_output_edges()
        assert len(outs) == 1
        assert outs[0].producer.name == "mm2"

    def test_each_kernel_gets_a_compute_task(self):
        dataflow = convert_to_dataflow(small_graph())
        for kernel in dataflow.kernels:
            assert len(kernel.tasks) == 1
            assert kernel.tasks[0].kind.value == "compute"

    def test_custom_tiling_config_respected(self):
        configs = {"mm1": TilingConfig([32, 32, 32], unroll_factor=64)}
        dataflow = convert_to_dataflow(small_graph(), configs)
        mm1 = dataflow.kernel_by_name("mm1")
        assert mm1.tiled.config.unroll_factor == 64
        assert mm1.outputs[0].itensor.element_shape == (32, 32)

    def test_topological_order_respects_dependencies(self):
        dataflow = convert_to_dataflow(small_graph())
        order = [k.name for k in dataflow.topological_order()]
        assert order.index("mm1") < order.index("act") < order.index("mm2")

    def test_gpt2_block_converts(self, gpt2_decode_graph):
        dataflow = convert_to_dataflow(gpt2_decode_graph)
        dataflow.verify()
        assert len(dataflow.kernels) >= 10
        assert len(dataflow.external_input_edges()) >= 3
