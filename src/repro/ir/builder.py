"""Convenience builder for Linalg graphs.

The LLM frontend (:mod:`repro.models`) uses this builder to express
transformer blocks concisely; examples and tests use it to construct small
programs.  The builder keeps the graph in program order and hands out SSA
values, so downstream passes always see a verified topological graph.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.ir.dtypes import DType, FLOAT32
from repro.ir.graph import Graph
from repro.ir.ops import (
    Value,
    make_batch_matmul,
    make_elementwise,
    make_fill,
    make_matmul,
    make_norm,
    make_rotary,
    make_softmax,
    make_transpose,
    make_weight,
)
from repro.ir.types import TensorType


class GraphBuilder:
    """Incrementally builds a :class:`~repro.ir.graph.Graph`."""

    def __init__(self, name: str = "graph") -> None:
        self.graph = Graph(name=name)
        self._name_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def _unique(self, base: str) -> str:
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return base if count == 0 else f"{base}_{count}"

    # ------------------------------------------------------------------
    # Inputs / constants
    # ------------------------------------------------------------------
    def input(self, shape: Sequence[int], dtype: DType = FLOAT32,
              name: str = "input") -> Value:
        value = Value(TensorType(tuple(shape), dtype), name=f"%{self._unique(name)}")
        return self.graph.add_input(value)

    def weight(self, shape: Sequence[int], dtype: DType = FLOAT32,
               name: str = "weight") -> Value:
        op = make_weight(shape, dtype, name=self._unique(name))
        return self.graph.add_op(op)

    def fill(self, shape: Sequence[int], dtype: DType = FLOAT32,
             value: float = 0.0, name: str = "fill") -> Value:
        op = make_fill(shape, dtype, value=value, name=self._unique(name))
        return self.graph.add_op(op)

    # ------------------------------------------------------------------
    # Compute ops
    # ------------------------------------------------------------------
    def matmul(self, lhs: Value, rhs: Value, out_dtype: Optional[DType] = None,
               name: str = "matmul") -> Value:
        op = make_matmul(lhs, rhs, out_dtype=out_dtype, name=self._unique(name))
        return self.graph.add_op(op)

    def batch_matmul(self, lhs: Value, rhs: Value,
                     out_dtype: Optional[DType] = None,
                     name: str = "batch_matmul") -> Value:
        op = make_batch_matmul(lhs, rhs, out_dtype=out_dtype,
                               name=self._unique(name))
        return self.graph.add_op(op)

    def elementwise(self, kind: str, *inputs: Value, name: Optional[str] = None,
                    **attributes: object) -> Value:
        op = make_elementwise(kind, list(inputs), name=self._unique(name or kind),
                              attributes=attributes)
        return self.graph.add_op(op)

    def add(self, lhs: Value, rhs: Value, name: str = "add") -> Value:
        return self.elementwise("add", lhs, rhs, name=name)

    def mul(self, lhs: Value, rhs: Value, name: str = "mul") -> Value:
        return self.elementwise("mul", lhs, rhs, name=name)

    def gelu(self, operand: Value, name: str = "gelu") -> Value:
        return self.elementwise("gelu", operand, name=name)

    def silu(self, operand: Value, name: str = "silu") -> Value:
        return self.elementwise("silu", operand, name=name)

    def rotary(self, operand: Value, name: str = "rotary") -> Value:
        op = make_rotary(operand, name=self._unique(name))
        return self.graph.add_op(op)

    def softmax(self, operand: Value, axis: int = -1, name: str = "softmax") -> Value:
        op = make_softmax(operand, axis=axis, name=self._unique(name))
        return self.graph.add_op(op)

    def layer_norm(self, operand: Value, weight: Optional[Value] = None,
                   name: str = "layer_norm") -> Value:
        op = make_norm("layer_norm", operand, weight, name=self._unique(name))
        return self.graph.add_op(op)

    def rms_norm(self, operand: Value, weight: Optional[Value] = None,
                 name: str = "rms_norm") -> Value:
        op = make_norm("rms_norm", operand, weight, name=self._unique(name))
        return self.graph.add_op(op)

    def transpose(self, operand: Value, perm: Sequence[int],
                  name: str = "transpose") -> Value:
        op = make_transpose(operand, perm, name=self._unique(name))
        return self.graph.add_op(op)

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def output(self, *values: Value) -> None:
        for value in values:
            self.graph.mark_output(value)

    def build(self) -> Graph:
        self.graph.verify()
        return self.graph
