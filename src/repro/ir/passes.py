"""Linalg-level optimisation passes.

These mirror the first stage of the StreamTensor pipeline (Figure 4):

* ``convert_tensor_to_linalg`` is implicit in our frontend (graphs are built
  directly in Linalg form).
* ``fuse_elementwise_ops`` — fuse chains of elementwise producers into their
  consumers so that fewer dataflow kernels (and thus fewer FIFOs/converters)
  are generated.
* ``fuse_linalg_fill`` — fold ``fill`` initialisations into their consumers.
* ``fold_unit_extent_dims`` — drop size-1 dimensions from op iteration spaces.

Each pass is a callable object with a ``run(graph)`` method so that the
pipeline driver can time and report every stage (Figure 10c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.affine import AffineMap
from repro.ir.graph import Graph
from repro.ir.ops import LinalgOp


class Pass:
    """Base class for graph passes."""

    name = "pass"

    def run(self, graph: Graph) -> Graph:
        raise NotImplementedError

    def __call__(self, graph: Graph) -> Graph:
        return self.run(graph)


@dataclass
class PassResult:
    """Statistics from a pass manager run, keyed by pass name."""

    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def record(self, pass_name: str, **values: float) -> None:
        self.stats.setdefault(pass_name, {}).update(values)


class PassManager:
    """Runs a sequence of passes, verifying the graph in between."""

    def __init__(self, passes: Optional[List[Pass]] = None) -> None:
        self.passes: List[Pass] = list(passes or [])
        self.result = PassResult()

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, graph: Graph) -> Graph:
        for pass_ in self.passes:
            before = len(graph.ops)
            graph = pass_.run(graph)
            graph.verify()
            self.result.record(pass_.name, ops_before=before,
                               ops_after=len(graph.ops))
        return graph


# ----------------------------------------------------------------------
# Elementwise fusion
# ----------------------------------------------------------------------
class FuseElementwiseOps(Pass):
    """Fuse single-use elementwise producers into their consumers.

    A producer op is fused when it is elementwise, has exactly one user, and
    the user is also elementwise with a matching shape.  The fused op keeps
    the consumer's kind and records the producer chain in the
    ``fused_kinds`` attribute — the downstream analytical kernel model uses
    the chain length to estimate per-element work.
    """

    name = "fuse_elementwise_ops"

    def run(self, graph: Graph) -> Graph:
        graph = graph.clone()
        changed = True
        while changed:
            changed = False
            for op in list(graph.ops):
                if not op.is_elementwise or op.is_constant:
                    continue
                users = graph.users(op.result)
                if len(users) != 1:
                    continue
                user = users[0]
                if not user.is_elementwise or user.is_constant:
                    continue
                if user.result_type.shape != op.result_type.shape:
                    continue
                self._fuse_into(graph, producer=op, consumer=user)
                changed = True
                break
        graph.normalize()
        return graph

    @staticmethod
    def _fuse_into(graph: Graph, producer: LinalgOp, consumer: LinalgOp) -> None:
        # Splice the producer's inputs in place of its result in the consumer.
        index = consumer.inputs.index(producer.result)
        new_inputs = (
            consumer.inputs[:index] + list(producer.inputs) + consumer.inputs[index + 1:]
        )
        rank = consumer.num_loops
        consumer.inputs = new_inputs
        consumer.indexing_maps = (
            [AffineMap.identity(rank) for _ in new_inputs]
            + [consumer.indexing_maps[-1]]
        )
        fused = list(consumer.attributes.get("fused_kinds", []))
        fused.extend(producer.attributes.get("fused_kinds", []))
        fused.append(producer.kind)
        consumer.attributes["fused_kinds"] = fused
        graph.erase_op(producer)


# ----------------------------------------------------------------------
# Fill fusion
# ----------------------------------------------------------------------
class FuseLinalgFill(Pass):
    """Fold ``fill`` ops into consumers as an ``init_value`` attribute."""

    name = "fuse_linalg_fill"

    def run(self, graph: Graph) -> Graph:
        graph = graph.clone()
        for op in list(graph.ops):
            if op.kind != "fill":
                continue
            users = graph.users(op.result)
            if not users:
                continue
            removable = True
            for user in users:
                if op.result in user.inputs:
                    user.attributes["init_value"] = op.attributes.get("value", 0.0)
                    user.inputs = [v for v in user.inputs if v is not op.result]
                    user.indexing_maps = (
                        user.indexing_maps[: len(user.inputs)]
                        + [user.indexing_maps[-1]]
                    )
                else:
                    removable = False
            if removable and not graph.users(op.result):
                graph.erase_op(op)
        graph.normalize()
        return graph


# ----------------------------------------------------------------------
# Unit-extent dim folding
# ----------------------------------------------------------------------
class FoldUnitExtentDims(Pass):
    """Remove size-1 iteration dimensions from ops.

    Unit dims frequently appear after attention-head reshapes; removing them
    keeps tiling factors meaningful and the itensor iteration spaces minimal.
    """

    name = "fold_unit_extent_dims"

    def run(self, graph: Graph) -> Graph:
        graph = graph.clone()
        for op in graph.ops:
            try:
                bounds = op.loop_bounds()
            except ValueError:
                continue
            unit_dims = [i for i, b in enumerate(bounds) if b == 1]
            if not unit_dims or len(unit_dims) == len(bounds):
                continue
            if not all(m.is_projected_permutation() for m in op.indexing_maps):
                continue
            op.attributes["folded_unit_dims"] = tuple(unit_dims)
        return graph


def default_linalg_pipeline() -> PassManager:
    """The Linalg optimisation stage of Figure 4."""
    return PassManager([
        FuseLinalgFill(),
        FuseElementwiseOps(),
        FoldUnitExtentDims(),
    ])
