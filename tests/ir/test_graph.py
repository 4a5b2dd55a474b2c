"""Tests for repro.ir.graph."""

import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.graph import VerificationError
from repro.ir.ops import Value
from repro.ir.types import TensorType
from repro.ir.dtypes import FLOAT32


def build_chain():
    builder = GraphBuilder("chain")
    x = builder.input((8, 8))
    w = builder.weight((8, 8))
    y = builder.matmul(x, w)
    z = builder.gelu(y)
    builder.output(z)
    return builder.build()


def op_named(graph, name):
    return next(op for op in graph.ops if op.name == name)


class TestGraphStructure:
    def test_users_and_producers(self):
        graph = build_chain()
        matmul = op_named(graph, "matmul")
        gelu = op_named(graph, "gelu")
        assert graph.users(matmul.result) == [gelu]
        assert gelu.inputs[0].producer is matmul

    def test_topological_sort_orders_dependencies(self):
        graph = build_chain()
        order = [op.name for op in graph.topological_sort()]
        assert order.index("matmul") < order.index("gelu")

    def test_clone_is_independent(self):
        graph = build_chain()
        clone = graph.clone()
        assert len(clone.ops) == len(graph.ops)
        clone.ops[0].attributes["marker"] = True
        assert "marker" not in graph.ops[0].attributes

    def test_clone_preserves_outputs(self):
        graph = build_chain()
        clone = graph.clone()
        assert len(clone.outputs) == 1
        clone.verify()


class TestVerification:
    def test_valid_graph_passes(self):
        build_chain().verify()

    def test_duplicate_names_rejected(self):
        graph = build_chain()
        graph.ops[1].name = graph.ops[0].name
        with pytest.raises(VerificationError, match="duplicate"):
            graph.verify()

    def test_use_before_def_rejected(self):
        graph = build_chain()
        graph.ops.reverse()
        with pytest.raises(VerificationError):
            graph.verify()

    def test_unknown_input_rejected(self):
        graph = build_chain()
        stray = Value(TensorType((8, 8), FLOAT32), name="%stray")
        graph.ops[-1].inputs.append(stray)
        graph.ops[-1].indexing_maps.insert(0, graph.ops[-1].indexing_maps[0])
        with pytest.raises(VerificationError, match="not a graph input"):
            graph.verify()

    def test_output_not_produced_rejected(self):
        graph = build_chain()
        graph.outputs.append(Value(TensorType((2, 2), FLOAT32)))
        with pytest.raises(VerificationError, match="output"):
            graph.verify()

    def test_erase_op_with_uses_rejected(self):
        graph = build_chain()
        with pytest.raises(VerificationError):
            graph.erase_op(op_named(graph, "matmul"))

    def test_normalize_restores_order(self):
        graph = build_chain()
        graph.ops.reverse()
        graph.normalize()
        graph.verify()

    def test_str_contains_ops(self):
        text = str(build_chain())
        assert "matmul" in text and "return" in text
