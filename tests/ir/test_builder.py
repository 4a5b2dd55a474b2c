"""Tests for repro.ir.builder.GraphBuilder."""

from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8


class TestGraphBuilder:
    def test_unique_names(self):
        builder = GraphBuilder()
        a = builder.input((4, 4), name="x")
        b = builder.input((4, 4), name="x")
        assert a.name != b.name

    def test_matmul_chain_builds_valid_graph(self):
        builder = GraphBuilder("net")
        x = builder.input((16, 32), INT8)
        w1 = builder.weight((32, 64), INT8)
        w2 = builder.weight((64, 16), INT8)
        h = builder.matmul(x, w1)
        h = builder.gelu(h)
        y = builder.matmul(h, w2)
        builder.output(y)
        graph = builder.build()
        assert len(graph.ops) == 5
        assert graph.outputs[0].type.shape == (16, 16)

    def test_elementwise_helpers(self):
        builder = GraphBuilder()
        x = builder.input((8, 8))
        y = builder.input((8, 8))
        for result in (builder.add(x, y), builder.mul(x, y), builder.gelu(x),
                       builder.silu(x), builder.rotary(x)):
            assert result.type.shape == (8, 8)

    def test_norms_and_softmax(self):
        builder = GraphBuilder()
        x = builder.input((4, 16))
        w = builder.weight((16,))
        assert builder.layer_norm(x, w).type.shape == (4, 16)
        assert builder.rms_norm(x, w).type.shape == (4, 16)
        assert builder.softmax(x).type.shape == (4, 16)

    def test_transpose(self):
        builder = GraphBuilder()
        x = builder.input((4, 16))
        assert builder.transpose(x, (1, 0)).type.shape == (16, 4)

    def test_fill_and_weight_are_constant_ops(self):
        builder = GraphBuilder()
        builder.fill((2, 2), value=0.0)
        builder.weight((2, 2))
        graph = builder.graph
        assert all(op.is_constant for op in graph.ops)

    def test_build_verifies(self):
        builder = GraphBuilder()
        x = builder.input((4, 4))
        builder.output(builder.gelu(x))
        graph = builder.build()
        assert graph.inputs and graph.outputs
