"""The iterative tensor (itensor) type — the paper's core abstraction.

An itensor (Section 3.1.2) describes *how* a tensor is streamed between
dataflow kernels:

* ``element_shape`` — the shape of the tensor slice (or vector) communicated
  as one stream token;
* an *iteration space* given by per-loop trip counts and step sizes
  (``[4,2]*[2,4]`` in the paper's notation);
* an *iteration map*, an affine map from iteration dimensions to data
  dimensions, which may permute dimensions (transposed access) or drop them
  (re-access of the same data).

Together these uniquely determine the stream order of tokens.  Two dataflow
kernels can be connected by a plain FIFO only if their itensor types match;
otherwise a stream layout converter with a ping-pong buffer must be inserted
(see :mod:`repro.itensor.converter`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.ir.affine import AffineConstantExpr, AffineDimExpr, AffineMap
from repro.ir.dtypes import DType
from repro.ir.types import TensorType


class ITensorError(Exception):
    """Raised when an itensor type is malformed or misused."""


@dataclass(frozen=True)
class ITensorType:
    """An iterative tensor type.

    Attributes:
        element_shape: Shape of one streamed tensor slice (token).
        dtype: Element data type.
        iter_tripcounts: Trip count of every iteration loop, outermost first.
        iter_steps: Step size of every iteration loop, outermost first.
        iter_map: Affine map from iteration dims to data dims.  The number of
            results equals the data-space rank; each result is either an
            iteration dimension (that loop scans the data dim) or a constant
            (the data dim is not scanned by any loop).
        vector_shape: Optional vectorisation of the token (Section 4.3.3);
            ``None`` means scalar elements.
    """

    element_shape: Tuple[int, ...]
    dtype: DType
    iter_tripcounts: Tuple[int, ...]
    iter_steps: Tuple[int, ...]
    iter_map: AffineMap
    vector_shape: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "element_shape",
                           tuple(int(d) for d in self.element_shape))
        object.__setattr__(self, "iter_tripcounts",
                           tuple(int(d) for d in self.iter_tripcounts))
        object.__setattr__(self, "iter_steps",
                           tuple(int(d) for d in self.iter_steps))
        if self.vector_shape is not None:
            object.__setattr__(self, "vector_shape",
                               tuple(int(d) for d in self.vector_shape))
        self._validate()

    def _validate(self) -> None:
        if len(self.iter_tripcounts) != len(self.iter_steps):
            raise ITensorError(
                "iteration tripcounts and steps must have the same length: "
                f"{self.iter_tripcounts} vs {self.iter_steps}"
            )
        if any(t <= 0 for t in self.iter_tripcounts):
            raise ITensorError(f"trip counts must be positive: {self.iter_tripcounts}")
        if any(s <= 0 for s in self.iter_steps):
            raise ITensorError(f"step sizes must be positive: {self.iter_steps}")
        if any(d <= 0 for d in self.element_shape):
            raise ITensorError(f"element dims must be positive: {self.element_shape}")
        if self.iter_map.num_dims != len(self.iter_tripcounts):
            raise ITensorError(
                f"iteration map has {self.iter_map.num_dims} dims but the "
                f"iteration space has {len(self.iter_tripcounts)} loops"
            )
        if self.iter_map.num_results != len(self.element_shape):
            raise ITensorError(
                f"iteration map has {self.iter_map.num_results} results but the "
                f"element shape has rank {len(self.element_shape)}"
            )
        for expr in self.iter_map.results:
            if not isinstance(expr, (AffineDimExpr, AffineConstantExpr)):
                raise ITensorError(
                    f"iteration map results must be dims or constants, got {expr}"
                )
        if self.vector_shape is not None:
            if len(self.vector_shape) != len(self.element_shape):
                raise ITensorError(
                    "vector shape rank must match element shape rank"
                )
            for vec, elem in zip(self.vector_shape, self.element_shape):
                if elem % vec != 0:
                    raise ITensorError(
                        f"vector shape {self.vector_shape} does not divide "
                        f"element shape {self.element_shape}"
                    )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Data-space rank."""
        return len(self.element_shape)

    @property
    def num_loops(self) -> int:
        return len(self.iter_tripcounts)

    @property
    def num_iterations(self) -> int:
        """Total number of tokens streamed (loop nest trip count)."""
        return math.prod(self.iter_tripcounts) if self.iter_tripcounts else 1

    @property
    def element_elements(self) -> int:
        return math.prod(self.element_shape) if self.element_shape else 1

    @property
    def element_bits(self) -> int:
        return self.element_elements * self.dtype.bits

    @property
    def element_bytes(self) -> float:
        return self.element_bits / 8.0

    def element_size(self, dim: int) -> int:
        """Element size along data dimension ``dim`` (Algorithm 1 notation)."""
        return self.element_shape[dim]

    def loop_for_data_dim(self, dim: int) -> Optional[int]:
        """The iteration loop scanning data dimension ``dim`` (None if constant)."""
        expr = self.iter_map.results[dim]
        if isinstance(expr, AffineDimExpr):
            return expr.position
        return None

    def tensor_shape(self) -> Tuple[int, ...]:
        """The full data-space shape covered by the stream."""
        shape = []
        for dim in range(self.rank):
            loop = self.loop_for_data_dim(dim)
            if loop is None:
                shape.append(self.element_shape[dim])
            else:
                shape.append(self.iter_tripcounts[loop] * self.iter_steps[loop])
        return tuple(shape)

    # ------------------------------------------------------------------
    # Stream order
    # ------------------------------------------------------------------
    def iteration_indices(self) -> Iterator[Tuple[int, ...]]:
        """Yield iteration indices in stream order (outermost loop slowest)."""
        ranges = [
            range(0, trip * step, step)
            for trip, step in zip(self.iter_tripcounts, self.iter_steps)
        ]
        yield from itertools.product(*ranges)

    def stream_order(self) -> Iterator[Tuple[int, ...]]:
        """Yield the data-space offset of every streamed token, in order.

        This reproduces the index sequences of Figure 5, e.g. for
        ``itensor(b)``: ``[0,0], [4,0], [0,2], [4,2], ...``.
        """
        for indices in self.iteration_indices():
            yield self.iter_map.evaluate(indices)

    def stream_order_list(self, limit: Optional[int] = None) -> List[Tuple[int, ...]]:
        """Materialise the stream order (optionally only the first ``limit``)."""
        order = self.stream_order()
        if limit is None:
            return list(order)
        return list(itertools.islice(order, limit))

    # ------------------------------------------------------------------
    # Compatibility
    # ------------------------------------------------------------------
    def matches(self, other: "ITensorType") -> bool:
        """Exact structural type match (Case 1 of Figure 5)."""
        return self == other

    def same_stream_order(self, other: "ITensorType",
                          max_tokens: int = 1 << 16) -> bool:
        """Semantic equivalence: identical token sequence and element shape.

        Two types with different encodings can still stream tokens in the
        same order; such producers/consumers can be fused without a layout
        converter.  The check enumerates the stream order (bounded by
        ``max_tokens`` for safety) — it is used by tests and by the folding
        pass, while the fusion pass uses the cheaper structural check first.
        """
        if self.element_shape != other.element_shape:
            return False
        if self.dtype != other.dtype:
            return False
        if self.num_iterations != other.num_iterations:
            return False
        if self.num_iterations > max_tokens:
            return self.matches(other)
        return self.stream_order_list() == other.stream_order_list()

    def is_compatible_with(self, other: "ITensorType") -> bool:
        """True if a plain FIFO suffices between a producer of ``self`` and a
        consumer expecting ``other`` (no layout converter needed)."""
        return self.matches(other) or self.same_stream_order(other)

    # ------------------------------------------------------------------
    # Derived types
    # ------------------------------------------------------------------
    def with_vector_shape(self, vector_shape: Sequence[int]) -> "ITensorType":
        return ITensorType(self.element_shape, self.dtype, self.iter_tripcounts,
                           self.iter_steps, self.iter_map, tuple(vector_shape))

    def __str__(self) -> str:
        elem = "x".join(str(d) for d in self.element_shape)
        trips = ",".join(str(d) for d in self.iter_tripcounts)
        steps = ",".join(str(d) for d in self.iter_steps)
        vec = ""
        if self.vector_shape is not None:
            vec = ", vector: " + "x".join(str(d) for d in self.vector_shape)
        return (f"itensor<{elem}x{self.dtype}, iter_space: [{trips}]*[{steps}], "
                f"iter_map: {self.iter_map}{vec}>")


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def operand_itensor(operand_type: TensorType, indexing_map: AffineMap,
                    loop_dims: Sequence[int], tile_sizes: Sequence[int],
                    bounds: Sequence[int],
                    drop_loops: Sequence[int] = ()) -> ITensorType:
    """Infer the itensor type of one operand of a tiled loop nest (Section 4.1).

    The tile loops give the iteration space, the operand's indexing map gives
    the iteration map (a loop it does not index re-accesses the operand), and
    the tile sizes give the element shape.

    Args:
        operand_type: Full tensor type of the operand.
        indexing_map: Map from iteration dims to the operand's data dims.
        loop_dims: Tile-loop order (iteration-dim indices, outermost first).
        tile_sizes: Tile size per iteration dim (indexed by iteration dim).
        bounds: Loop bound per iteration dim.
        drop_loops: Iteration dims excluded from this operand's iteration
            space (used for results: reduction loops do not re-stream the
            output tile).
    """
    drop = set(drop_loops)
    kept_dims = [d for d in loop_dims if d not in drop]
    tripcounts = [math.ceil(bounds[dim] / tile_sizes[dim]) for dim in kept_dims]
    steps = [tile_sizes[dim] for dim in kept_dims]

    element_shape = []
    exprs = []
    loop_position = {dim: i for i, dim in enumerate(kept_dims)}
    for res_idx, expr in enumerate(indexing_map.results):
        if isinstance(expr, AffineDimExpr) and expr.position in loop_position:
            dim = expr.position
            element_shape.append(min(tile_sizes[dim], operand_type.shape[res_idx]))
            exprs.append(AffineDimExpr(loop_position[dim]))
        else:
            # Data dim not scanned by a kept loop: the whole extent is part of
            # the element (streamed in one token).
            element_shape.append(operand_type.shape[res_idx])
            exprs.append(AffineConstantExpr(0))
    iter_map = AffineMap(len(kept_dims), tuple(exprs))
    return ITensorType(tuple(element_shape), operand_type.dtype,
                       tuple(tripcounts), tuple(steps), iter_map)


def itensor_from_tiling(tensor: TensorType, tile_shape: Sequence[int],
                        loop_order: Optional[Sequence[int]] = None,
                        reaccess_loops: Optional[Sequence[Tuple[int, int]]] = None,
                        ) -> ITensorType:
    """Build an itensor by tiling ``tensor`` with ``tile_shape``.

    The tiling is a loop nest over the tensor's data dims (identity indexing
    map) plus one unit-tile loop per re-access, built by
    :func:`operand_itensor` like every kernel port.

    Args:
        tensor: The full tensor being streamed.
        tile_shape: Tile (token) shape; each entry must divide the
            corresponding tensor dimension.
        loop_order: Order in which data dimensions are scanned, outermost
            first.  Defaults to row-major (``0, 1, ..., rank-1``).
        reaccess_loops: Optional extra loops that re-access data, given as
            ``(insert_position, trip_count)`` pairs in the final loop order.

    Returns:
        The resulting itensor type.
    """
    if len(tile_shape) != tensor.rank:
        raise ITensorError(
            f"tile shape rank {len(tile_shape)} != tensor rank {tensor.rank}"
        )
    for tile, extent in zip(tile_shape, tensor.shape):
        if extent % tile != 0:
            raise ITensorError(
                f"tile shape {tuple(tile_shape)} does not divide tensor shape "
                f"{tensor.shape}"
            )
    order = list(loop_order) if loop_order is not None else list(range(tensor.rank))
    if sorted(order) != list(range(tensor.rank)):
        raise ITensorError(f"loop order {order!r} is not a permutation")

    # Iteration dims 0..rank-1 scan the data dims; each re-access loop is one
    # more iteration dim with unit tiles that the indexing map leaves out.
    tile_sizes = list(tile_shape)
    bounds = list(tensor.shape)
    for position, trip in sorted(reaccess_loops or (), key=lambda p: p[0]):
        order.insert(position, len(bounds))
        tile_sizes.append(1)
        bounds.append(trip)
    indexing_map = AffineMap.from_results(len(bounds), range(tensor.rank))
    return operand_itensor(tensor, indexing_map, order, tile_sizes, bounds)
