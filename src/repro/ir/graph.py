"""SSA graph container for Linalg-level programs.

A :class:`Graph` owns an ordered list of :class:`~repro.ir.ops.LinalgOp`
nodes, the graph inputs, and the graph outputs.  The graph is the unit the
compiler pipeline transforms: Linalg optimisation and tiling operate on it
directly, and the Linalg-to-dataflow conversion turns each op into a dataflow
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.ir.ops import LinalgOp, Value


class VerificationError(Exception):
    """Raised when an IR invariant is violated."""


@dataclass
class Graph:
    """An SSA graph of structured tensor operations.

    Attributes:
        name: Human-readable graph name (e.g. ``"gpt2_block"``).
        inputs: Graph input values (activations, KV-cache slices, ...).
        ops: Operations in a valid topological (program) order.
        outputs: Graph output values; must be produced by ops in the graph
            or be graph inputs.
    """

    name: str = "graph"
    inputs: List[Value] = field(default_factory=list)
    ops: List[LinalgOp] = field(default_factory=list)
    outputs: List[Value] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_input(self, value: Value) -> Value:
        self.inputs.append(value)
        return value

    def add_op(self, op: LinalgOp) -> Value:
        self.ops.append(op)
        return op.result

    def mark_output(self, value: Value) -> None:
        self.outputs.append(value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def users(self, value: Value) -> List[LinalgOp]:
        """All ops that consume ``value``."""
        return [op for op in self.ops if value in op.inputs]

    # ------------------------------------------------------------------
    # Structure manipulation
    # ------------------------------------------------------------------

    def erase_op(self, op: LinalgOp) -> None:
        if self.users(op.result):
            raise VerificationError(
                f"cannot erase {op.name}: its result still has uses"
            )
        self.ops.remove(op)

    def topological_sort(self) -> List[LinalgOp]:
        """Return ops in dependency order (raises on cycles)."""
        produced: Set[int] = {id(v) for v in self.inputs}
        remaining = list(self.ops)
        ordered: List[LinalgOp] = []
        while remaining:
            progressed = False
            for op in list(remaining):
                if all(
                    id(v) in produced or v.producer is None for v in op.inputs
                ):
                    ordered.append(op)
                    produced.add(id(op.result))
                    remaining.remove(op)
                    progressed = True
            if not progressed:
                names = ", ".join(op.name for op in remaining)
                raise VerificationError(f"cycle detected among ops: {names}")
        return ordered

    def normalize(self) -> None:
        """Re-order ``ops`` into a valid topological order in place."""
        self.ops = self.topological_sort()

    # ------------------------------------------------------------------
    # Verification and printing
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check SSA dominance, uniqueness of names, and output validity."""
        seen_names: Dict[str, LinalgOp] = {}
        available: Set[int] = {id(v) for v in self.inputs}
        for op in self.ops:
            if op.name in seen_names:
                raise VerificationError(f"duplicate op name {op.name!r}")
            seen_names[op.name] = op
            for value in op.inputs:
                if value.producer is None and id(value) not in available:
                    raise VerificationError(
                        f"{op.name} uses {value.name} which is not a graph input"
                    )
                if value.producer is not None and id(value) not in available:
                    raise VerificationError(
                        f"{op.name} uses {value.name} before its definition"
                    )
            available.add(id(op.result))
        for value in self.outputs:
            if id(value) not in available:
                raise VerificationError(
                    f"graph output {value.name} is not produced by the graph"
                )

    def __str__(self) -> str:
        lines = [f"graph @{self.name}("]
        lines.extend(f"  {value!r}," for value in self.inputs)
        lines.append(") {")
        lines.extend(f"  {op!r}" for op in self.ops)
        outs = ", ".join(v.name for v in self.outputs)
        lines.append(f"  return {outs}")
        lines.append("}")
        return "\n".join(lines)

    def clone(self) -> "Graph":
        """Deep-ish copy: ops are recreated, values re-linked."""
        from repro.ir.ops import LinalgOp as _Op

        mapping: Dict[int, Value] = {}
        new_graph = Graph(name=self.name)
        for value in self.inputs:
            clone = Value(type=value.type, name=value.name)
            mapping[id(value)] = clone
            new_graph.add_input(clone)
        for op in self.topological_sort():
            new_inputs = [mapping[id(v)] for v in op.inputs]
            new_op = _Op(
                kind=op.kind,
                inputs=new_inputs,
                result_type=op.result_type,
                iterator_types=list(op.iterator_types),
                indexing_maps=list(op.indexing_maps),
                attributes=dict(op.attributes),
                name=op.name,
            )
            mapping[id(op.result)] = new_op.result
            new_graph.add_op(new_op)
        for value in self.outputs:
            new_graph.mark_output(mapping[id(value)])
        return new_graph
