"""Linalg-style structured operations.

The StreamTensor pipeline starts from a Linalg-level IR where every tensor
operation is a *structured* op: it has an iteration domain (a perfect loop
nest), iterator types (parallel or reduction), and indexing maps relating
iteration dimensions to the dimensions of each operand and result.  This is
the information the tiling, unrolling and permutation passes operate on.

We model a small but complete set of named ops sufficient for transformer
blocks (matmul, elementwise arithmetic, activations, softmax, normalisation,
rotary embedding, transpose/reshape, fill/constant) and a fully generic op for
anything else.  Every named op is expressed through the same
:class:`LinalgOp` structure so that all passes treat them uniformly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.ir.affine import AffineMap
from repro.ir.dtypes import DType
from repro.ir.types import TensorType


class IteratorType(Enum):
    """Loop type of one iteration dimension of a structured op."""

    PARALLEL = "parallel"
    REDUCTION = "reduction"


_VALUE_COUNTER = itertools.count()

#: Operations per loop-nest point of the op kinds that do more than one.
_FLOPS_PER_ITERATION = {
    "matmul": 2,
    "batch_matmul": 2,
    "head_projection": 2,
    "attention_scores": 2,
    "attention_context": 2,
    "output_projection": 2,
    "softmax": 5,
    "layer_norm": 8,
    "rms_norm": 6,
    "gelu": 10,
    "silu": 6,
    "rotary": 6,
}


@dataclass(eq=False)
class Value:
    """An SSA value: the result of an operation or a graph input.

    Values compare by identity; ``uid`` provides a stable ordering and a
    readable name for printing and code generation.
    """

    type: TensorType
    name: str = ""
    producer: Optional["LinalgOp"] = None
    result_index: int = 0
    uid: int = field(default_factory=lambda: next(_VALUE_COUNTER))

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"%v{self.uid}"

    def __repr__(self) -> str:
        return f"{self.name}: {self.type}"


@dataclass(eq=False)
class LinalgOp:
    """A structured (Linalg-style) operation.

    Attributes:
        kind: Operation kind (e.g. ``"matmul"``, ``"add"``, ``"softmax"``).
        inputs: Input SSA values.
        result_type: Type of the single result tensor.
        iterator_types: One entry per iteration dimension of the op.
        indexing_maps: One affine map per input followed by one for the
            result, mapping iteration dims to operand data dims.
        attributes: Free-form op attributes (e.g. constant fill value).
        name: Unique op name within its graph.
    """

    kind: str
    inputs: List[Value]
    result_type: TensorType
    iterator_types: List[IteratorType]
    indexing_maps: List[AffineMap]
    attributes: Dict[str, object] = field(default_factory=dict)
    name: str = ""
    uid: int = field(default_factory=lambda: next(_VALUE_COUNTER))

    result: Value = field(init=False)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"{self.kind}_{self.uid}"
        if len(self.indexing_maps) != len(self.inputs) + 1:
            raise ValueError(
                f"{self.name}: expected {len(self.inputs) + 1} indexing maps "
                f"(inputs + result), got {len(self.indexing_maps)}"
            )
        for imap in self.indexing_maps:
            if imap.num_dims != len(self.iterator_types):
                raise ValueError(
                    f"{self.name}: indexing map {imap} has {imap.num_dims} dims "
                    f"but the op has {len(self.iterator_types)} iterators"
                )
        self.result = Value(
            type=self.result_type, name=f"%{self.name}", producer=self
        )

    # ------------------------------------------------------------------
    # Iteration domain queries
    # ------------------------------------------------------------------
    @property
    def num_loops(self) -> int:
        return len(self.iterator_types)

    @property
    def reduction_dims(self) -> List[int]:
        return [
            i
            for i, it in enumerate(self.iterator_types)
            if it is IteratorType.REDUCTION
        ]

    def loop_bounds(self) -> List[int]:
        """Trip count of every iteration dimension.

        Bounds are inferred by matching indexing-map results against operand
        shapes, exactly as Linalg does.
        """
        bounds: List[Optional[int]] = [None] * self.num_loops
        operands = list(self.inputs) + [self.result]
        for operand, imap in zip(operands, self.indexing_maps):
            for res_idx, expr in enumerate(imap.results):
                dims = expr.used_dims()
                if len(dims) != 1:
                    continue
                (dim,) = dims
                extent = operand.type.shape[res_idx]
                if bounds[dim] is None:
                    bounds[dim] = extent
                elif bounds[dim] != extent:
                    raise ValueError(
                        f"{self.name}: inconsistent extent for d{dim}: "
                        f"{bounds[dim]} vs {extent}"
                    )
        missing = [i for i, b in enumerate(bounds) if b is None]
        if missing:
            raise ValueError(
                f"{self.name}: could not infer bounds for dims {missing}"
            )
        return [int(b) for b in bounds]

    # ------------------------------------------------------------------
    # Cost model hooks
    # ------------------------------------------------------------------
    def iteration_count(self) -> int:
        return math.prod(self.loop_bounds()) if self.num_loops else 1

    @property
    def flops_per_iteration(self) -> int:
        """Floating point / MAC operations in one point of the loop nest."""
        return _FLOPS_PER_ITERATION.get(self.kind, 1)

    def flops(self) -> int:
        """Approximate floating point / MAC operation count."""
        return self.iteration_count() * self.flops_per_iteration

    @property
    def is_elementwise(self) -> bool:
        """True if the op has no reduction dims and identity-like maps."""
        if self.reduction_dims:
            return False
        return all(imap.is_projected_permutation() for imap in self.indexing_maps)

    @property
    def is_constant(self) -> bool:
        return self.kind in ("fill", "constant", "weight")

    def __repr__(self) -> str:
        ins = ", ".join(v.name for v in self.inputs)
        return f"{self.result.name} = {self.kind}({ins}) : {self.result_type}"


# ----------------------------------------------------------------------
# Named op constructors
# ----------------------------------------------------------------------
def _parallel(n: int) -> List[IteratorType]:
    return [IteratorType.PARALLEL] * n


def make_matmul(lhs: Value, rhs: Value, out_dtype: Optional[DType] = None,
                name: str = "") -> LinalgOp:
    """``C[m, n] += A[m, k] * B[k, n]``."""
    m, k = lhs.type.shape
    k2, n = rhs.type.shape
    if k != k2:
        raise ValueError(f"matmul contraction mismatch: {lhs.type} x {rhs.type}")
    dtype = out_dtype or lhs.type.dtype
    result_type = TensorType((m, n), dtype)
    maps = [
        AffineMap.from_results(3, [0, 2]),   # A[m, k]
        AffineMap.from_results(3, [2, 1]),   # B[k, n]
        AffineMap.from_results(3, [0, 1]),   # C[m, n]
    ]
    iterators = [IteratorType.PARALLEL, IteratorType.PARALLEL, IteratorType.REDUCTION]
    return LinalgOp("matmul", [lhs, rhs], result_type, iterators, maps, name=name)


def make_batch_matmul(lhs: Value, rhs: Value, out_dtype: Optional[DType] = None,
                      name: str = "") -> LinalgOp:
    """``C[b, m, n] += A[b, m, k] * B[b, k, n]`` (attention score/context)."""
    b, m, k = lhs.type.shape
    b2, k2, n = rhs.type.shape
    if b != b2 or k != k2:
        raise ValueError(f"batch_matmul mismatch: {lhs.type} x {rhs.type}")
    dtype = out_dtype or lhs.type.dtype
    result_type = TensorType((b, m, n), dtype)
    maps = [
        AffineMap.from_results(4, [0, 1, 3]),  # A[b, m, k]
        AffineMap.from_results(4, [0, 3, 2]),  # B[b, k, n]
        AffineMap.from_results(4, [0, 1, 2]),  # C[b, m, n]
    ]
    iterators = [
        IteratorType.PARALLEL,
        IteratorType.PARALLEL,
        IteratorType.PARALLEL,
        IteratorType.REDUCTION,
    ]
    return LinalgOp("batch_matmul", [lhs, rhs], result_type, iterators, maps,
                    name=name)


def make_elementwise(kind: str, inputs: Sequence[Value], name: str = "",
                     attributes: Optional[Dict[str, object]] = None) -> LinalgOp:
    """A generic elementwise op (add, mul, gelu, silu, residual, ...)."""
    inputs = list(inputs)
    if not inputs:
        raise ValueError("elementwise op requires at least one input")
    shape = inputs[0].type.shape
    for value in inputs[1:]:
        if value.type.shape != shape:
            raise ValueError(
                f"elementwise shape mismatch: {value.type.shape} vs {shape}"
            )
    rank = len(shape)
    result_type = TensorType(shape, inputs[0].type.dtype)
    maps = [AffineMap.identity(rank) for _ in range(len(inputs) + 1)]
    return LinalgOp(kind, inputs, result_type, _parallel(rank), maps,
                    attributes=dict(attributes or {}), name=name)


def make_softmax(operand: Value, axis: int = -1, name: str = "") -> LinalgOp:
    """Softmax over one axis, modelled as a single fused structured op."""
    shape = operand.type.shape
    rank = len(shape)
    axis = axis % rank
    iterators = [
        IteratorType.REDUCTION if i == axis else IteratorType.PARALLEL
        for i in range(rank)
    ]
    maps = [AffineMap.identity(rank), AffineMap.identity(rank)]
    return LinalgOp("softmax", [operand], TensorType(shape, operand.type.dtype),
                    iterators, maps, attributes={"axis": axis}, name=name)


def make_norm(kind: str, operand: Value, weight: Optional[Value] = None,
              name: str = "") -> LinalgOp:
    """LayerNorm or RMSNorm over the last axis."""
    if kind not in ("layer_norm", "rms_norm"):
        raise ValueError(f"unknown norm kind {kind!r}")
    shape = operand.type.shape
    rank = len(shape)
    iterators = [
        IteratorType.REDUCTION if i == rank - 1 else IteratorType.PARALLEL
        for i in range(rank)
    ]
    inputs = [operand]
    maps = [AffineMap.identity(rank)]
    if weight is not None:
        inputs.append(weight)
        maps.append(AffineMap.projection(rank, [rank - 1]))
    maps.append(AffineMap.identity(rank))
    return LinalgOp(kind, inputs, TensorType(shape, operand.type.dtype),
                    iterators, maps, name=name)


def make_transpose(operand: Value, perm: Sequence[int], name: str = "") -> LinalgOp:
    """Transpose ``operand`` according to ``perm``."""
    shape = operand.type.shape
    rank = len(shape)
    if sorted(perm) != list(range(rank)):
        raise ValueError(f"{perm!r} is not a permutation of rank {rank}")
    result_shape = tuple(shape[p] for p in perm)
    maps = [
        AffineMap.identity(rank),
        AffineMap.from_results(rank, perm),
    ]
    return LinalgOp("transpose", [operand], TensorType(result_shape, operand.type.dtype),
                    _parallel(rank), maps, attributes={"perm": tuple(perm)}, name=name)


def make_fill(shape: Sequence[int], dtype: DType, value: float = 0.0,
              name: str = "") -> LinalgOp:
    """Fill a tensor with a scalar constant (``linalg.fill``)."""
    rank = len(shape)
    result_type = TensorType(tuple(shape), dtype)
    maps = [AffineMap.identity(rank)]
    return LinalgOp("fill", [], result_type, _parallel(rank), maps,
                    attributes={"value": value}, name=name)


def make_weight(shape: Sequence[int], dtype: DType, name: str = "") -> LinalgOp:
    """A model parameter tensor (materialised from external memory)."""
    rank = len(shape)
    result_type = TensorType(tuple(shape), dtype)
    maps = [AffineMap.identity(rank)]
    return LinalgOp("weight", [], result_type, _parallel(rank), maps, name=name)


def make_rotary(operand: Value, name: str = "") -> LinalgOp:
    """Rotary positional embedding applied elementwise over head dims."""
    return make_elementwise("rotary", [operand], name=name)
