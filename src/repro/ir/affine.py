"""A small affine-expression and affine-map library.

The itensor type system (Section 3.1 of the paper) describes the mapping from
an iteration space to a data space with an affine map such as
``(d0, d1, d2) -> (d2, d0)``.  This module provides the minimal affine algebra
needed by the compiler: dimension expressions, constants, sums and scaled
dimensions, plus affine maps with composition, permutation construction and
evaluation.

The implementation intentionally mirrors the subset of MLIR's affine map
semantics that StreamTensor uses: projections (dropping dims), permutations,
and constant results.  General floordiv/mod expressions are not required by
any pass in the paper and are therefore not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union


@dataclass(frozen=True)
class AffineExpr:
    """Base class for affine expressions."""

    def evaluate(self, dims: Sequence[int]) -> int:
        raise NotImplementedError

    def used_dims(self) -> frozenset:
        raise NotImplementedError


@dataclass(frozen=True)
class AffineDimExpr(AffineExpr):
    """A reference to iteration dimension ``position``  (``d<position>``)."""

    position: int

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ValueError("dimension position must be non-negative")

    def evaluate(self, dims: Sequence[int]) -> int:
        return dims[self.position]

    def used_dims(self) -> frozenset:
        return frozenset({self.position})

    def __str__(self) -> str:
        return f"d{self.position}"


@dataclass(frozen=True)
class AffineConstantExpr(AffineExpr):
    """A constant result expression."""

    value: int

    def evaluate(self, dims: Sequence[int]) -> int:
        return self.value

    def used_dims(self) -> frozenset:
        return frozenset()

    def __str__(self) -> str:
        return str(self.value)


ExprLike = Union[AffineExpr, int]


def _as_expr(value: ExprLike) -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    if isinstance(value, int):
        return AffineDimExpr(value)
    raise TypeError(f"cannot convert {value!r} to an affine expression")


@dataclass(frozen=True)
class AffineMap:
    """An affine map ``(d0, ..., d<n-1>) -> (expr0, ..., expr<m-1>)``.

    Attributes:
        num_dims: Number of input iteration dimensions.
        results: Result expressions, one per output (data) dimension.
    """

    num_dims: int
    results: Tuple[AffineExpr, ...]

    def __post_init__(self) -> None:
        for expr in self.results:
            for dim in expr.used_dims():
                if dim >= self.num_dims:
                    raise ValueError(
                        f"expression {expr} references d{dim} but the map only "
                        f"has {self.num_dims} dims"
                    )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_results(num_dims: int, results: Iterable[ExprLike]) -> "AffineMap":
        """Build a map from dimension indices or expressions."""
        return AffineMap(num_dims, tuple(_as_expr(r) for r in results))

    @staticmethod
    def identity(num_dims: int) -> "AffineMap":
        """The identity map ``(d0, ..., dn-1) -> (d0, ..., dn-1)``."""
        return AffineMap.from_results(num_dims, range(num_dims))

    @staticmethod
    def permutation(perm: Sequence[int]) -> "AffineMap":
        """A permutation map; ``perm[i]`` is the input dim feeding output i."""
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"{perm!r} is not a permutation")
        return AffineMap.from_results(len(perm), perm)

    @staticmethod
    def projection(num_dims: int, kept: Sequence[int]) -> "AffineMap":
        """A map keeping only the listed input dims, in the given order."""
        return AffineMap.from_results(num_dims, kept)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_results(self) -> int:
        return len(self.results)

    def evaluate(self, dims: Sequence[int]) -> Tuple[int, ...]:
        """Apply the map to concrete iteration indices."""
        if len(dims) != self.num_dims:
            raise ValueError(
                f"expected {self.num_dims} indices, got {len(dims)}"
            )
        return tuple(expr.evaluate(dims) for expr in self.results)

    def is_projected_permutation(self) -> bool:
        """True if every result is a distinct plain dimension expression."""
        positions = []
        for expr in self.results:
            if not isinstance(expr, AffineDimExpr):
                return False
            positions.append(expr.position)
        return len(set(positions)) == len(positions)

    def used_dims(self) -> frozenset:
        dims = frozenset()
        for expr in self.results:
            dims |= expr.used_dims()
        return dims

    def __str__(self) -> str:
        dims = ", ".join(f"d{i}" for i in range(self.num_dims))
        results = ", ".join(str(expr) for expr in self.results)
        return f"({dims}) -> ({results})"
