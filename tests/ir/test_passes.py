"""Tests for the Linalg optimisation passes."""

from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph
from repro.ir.passes import (
    FuseElementwiseOps,
    FuseLinalgFill,
    default_linalg_pipeline,
)


def elementwise_chain_graph():
    builder = GraphBuilder("chain")
    x = builder.input((8, 8))
    w = builder.weight((8, 8))
    y = builder.matmul(x, w)
    a = builder.gelu(y)
    b = builder.add(a, x)
    builder.output(b)
    return builder.build()


class TestFuseElementwiseOps:
    def test_fuses_single_use_chain(self):
        graph = elementwise_chain_graph()
        fused = FuseElementwiseOps().run(graph)
        kinds = [op.kind for op in fused.ops]
        assert "gelu" not in kinds
        add = next(op for op in fused.ops if op.name == "add")
        assert "gelu" in add.attributes["fused_kinds"]

    def test_does_not_fuse_multi_use_producer(self):
        builder = GraphBuilder()
        x = builder.input((4, 4))
        g = builder.gelu(x)
        builder.output(builder.add(g, x), builder.mul(g, x))
        graph = builder.build()
        fused = FuseElementwiseOps().run(graph)
        assert any(op.kind == "gelu" for op in fused.ops)

    def test_original_graph_untouched(self):
        graph = elementwise_chain_graph()
        before = len(graph.ops)
        FuseElementwiseOps().run(graph)
        assert len(graph.ops) == before

    def test_result_verifies(self):
        FuseElementwiseOps().run(elementwise_chain_graph()).verify()


class TestFuseLinalgFill:
    def test_fill_folded_into_consumer(self):
        builder = GraphBuilder()
        x = builder.input((4, 4))
        zero = builder.fill((4, 4), value=0.0)
        builder.output(builder.add(x, zero))
        graph = builder.build()
        result = FuseLinalgFill().run(graph)
        assert not any(op.kind == "fill" for op in result.ops)
        add = next(op for op in result.ops if op.kind == "add")
        assert add.attributes["init_value"] == 0.0

    def test_unused_fill_left_alone(self):
        builder = GraphBuilder()
        x = builder.input((4, 4))
        builder.fill((4, 4))
        builder.output(builder.gelu(x))
        graph = builder.build()
        result = FuseLinalgFill().run(graph)
        result.verify()


class TestPassManager:
    def test_default_pipeline_runs_fill_then_elementwise_fusion(self):
        passes = default_linalg_pipeline().passes
        assert [type(p) for p in passes] == [FuseLinalgFill, FuseElementwiseOps]

    def test_default_pipeline_verifies_after_every_pass(self, monkeypatch):
        chain = elementwise_chain_graph()
        verified = []
        verify = Graph.verify

        def spy(graph):
            verified.append(len(graph.ops))
            verify(graph)

        monkeypatch.setattr(Graph, "verify", spy)
        manager = default_linalg_pipeline()
        graph = manager.run(chain)
        assert len(verified) == len(manager.passes)
        # The chain's gelu is fused into the add by the second pass.
        assert verified[-1] == len(graph.ops) < verified[0]

    def test_pipeline_reduces_op_count_on_gpt2_block(self, gpt2_decode_graph):
        manager = default_linalg_pipeline()
        optimized = manager.run(gpt2_decode_graph)
        assert len(optimized.ops) <= len(gpt2_decode_graph.ops)
        optimized.verify()
