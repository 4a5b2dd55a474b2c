"""Linalg-level optimisation passes.

These mirror the first stage of the StreamTensor pipeline (Figure 4):

* ``convert_tensor_to_linalg`` is implicit in our frontend (graphs are built
  directly in Linalg form).
* ``fuse_elementwise_ops`` — fuse chains of elementwise producers into their
  consumers so that fewer dataflow kernels (and thus fewer FIFOs/converters)
  are generated.
* ``fuse_linalg_fill`` — fold ``fill`` initialisations into their consumers.

Each pass has a ``run(graph)`` method returning the rewritten graph;
:class:`PassManager` runs them in order and verifies the graph after each
one.  Unit-extent dim folding is not done: nothing after this stage would
read a folded iteration space.
"""

from __future__ import annotations

from typing import List

from repro.ir.affine import AffineMap
from repro.ir.graph import Graph
from repro.ir.ops import LinalgOp


class Pass:
    """Base class for graph passes."""

    def run(self, graph: Graph) -> Graph:
        raise NotImplementedError


class PassManager:
    """Runs a sequence of passes, verifying the graph in between."""

    def __init__(self, passes: List[Pass]) -> None:
        self.passes = list(passes)

    def run(self, graph: Graph) -> Graph:
        for pass_ in self.passes:
            graph = pass_.run(graph)
            graph.verify()
        return graph


# ----------------------------------------------------------------------
# Elementwise fusion
# ----------------------------------------------------------------------
class FuseElementwiseOps(Pass):
    """Fuse single-use elementwise producers into their consumers.

    A producer op is fused when it is elementwise, has exactly one user, and
    the user is also elementwise with a matching shape.  The fused op keeps
    the consumer's kind and records the producer chain in the
    ``fused_kinds`` attribute.  The analytical kernel model
    (:class:`~repro.platform.hls_profiler.HlsProfiler`) prices a fused op
    by its own kind only; it does not read the chain.
    """

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


def default_linalg_pipeline() -> PassManager:
    """The Linalg optimisation stage of Figure 4."""
    return PassManager([
        FuseLinalgFill(),
        FuseElementwiseOps(),
    ])
