"""Stream layout converter generation (Algorithm 1 of the paper).

When a producer's output itensor type and a consumer's input itensor type do
not match, a stream layout converter with a local ping-pong buffer must be
inserted.  Algorithm 1 infers the *minimal* ping-pong buffer shape and the
loop level at which the buffer can be shared (reused):

* A data dimension can be *reduced* to its element size (instead of buffering
  its full extent) only if (1) the source and result element sizes along that
  dimension are equal, and (2) both types scan that data dimension with the
  same iteration loop (same loop nesting level).  The corresponding loop then
  becomes a *shared loop* wrapping both the write and read loop nests of the
  converter, so the buffer is refilled once per shared-loop iteration
  (Figure 7(a): a 16x64 buffer reused 4 times for a 64x64 tensor).
* A loop can only be shared if all loops outer to it are shared as well
  (otherwise the buffer cannot be hoisted under it); shared loops therefore
  always form a prefix ``0 .. before_loop-1`` of the loop nest.

The result for the Figure 5 example (``itensor(b)`` -> ``itensor(c)``) is an
8x2 ping-pong buffer shared under loop ``d0``: the source writes one column
of tiles while the target reads the previous column twice.

Note on fidelity: the paper's pseudocode iterates data dimensions and breaks
on the first non-reducible one; applied literally to the paper's own
Figure 5 example that would yield an 8x8 buffer, contradicting the stated
8x2 result.  We therefore implement the behaviour described in the
surrounding prose (Section 5.2.1) and validated by both worked examples:
every data dimension is classified independently, followed by the
shared-loop prefix filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.ir.affine import AffineDimExpr
from repro.itensor.itensor_type import ITensorError, ITensorType
from repro.itensor.stream_type import BufferType


@dataclass(frozen=True)
class ConverterSpec:
    """The result of Algorithm 1.

    Attributes:
        buf_shape: Shape of the (single) ping-pong buffer bank.
        before_loop: Number of outermost shared loops; the buffer is inserted
            inside these loops and reused once per iteration of them.
        shared_loops: Positions of the shared loops (``0 .. before_loop-1``).
        source: Source itensor type.
        result: Result itensor type.
    """

    buf_shape: Tuple[int, ...]
    before_loop: int
    shared_loops: Tuple[int, ...]
    source: ITensorType
    result: ITensorType

    @property
    def buffer(self) -> BufferType:
        """The ping-pong buffer implementing the conversion."""
        return BufferType(self.buf_shape, self.source.dtype, double_buffered=True)

    @property
    def buffer_bytes(self) -> float:
        """Total on-chip bytes of the converter (both ping-pong banks)."""
        return self.buffer.size_bytes

    @property
    def reuse_factor(self) -> int:
        """How many times the buffer is reused across the full tensor."""
        factor = 1
        for loop in self.shared_loops:
            factor *= self.source.iter_tripcounts[loop]
        return factor


def infer_converter(src: ITensorType, res: ITensorType) -> ConverterSpec:
    """Algorithm 1: infer the minimal converter ping-pong buffer.

    Args:
        src: Producer-side itensor type.
        res: Consumer-side itensor type.

    Returns:
        A :class:`ConverterSpec` describing the buffer and shared loops.

    Raises:
        ITensorError: if the two types do not describe the same underlying
            tensor (different data rank, full shape, or dtype).
    """
    if src.rank != res.rank:
        raise ITensorError(
            f"converter source rank {src.rank} != result rank {res.rank}"
        )
    if src.tensor_shape() != res.tensor_shape():
        raise ITensorError(
            "converter source and result must cover the same tensor: "
            f"{src.tensor_shape()} vs {res.tensor_shape()}"
        )
    if src.dtype != res.dtype:
        raise ITensorError(
            f"converter source dtype {src.dtype} != result dtype {res.dtype}"
        )

    full_shape = src.tensor_shape()

    # Step 1: classify each data dimension as reducible or not, recording the
    # shared loop that scans it (lines 3-11 of Algorithm 1).
    shared_loops: List[int] = []
    reducible_dims: List[int] = []
    for dim in range(src.rank):
        if src.element_size(dim) != res.element_size(dim):
            continue
        src_expr = src.iter_map.results[dim]
        res_expr = res.iter_map.results[dim]
        if (isinstance(src_expr, AffineDimExpr)
                and isinstance(res_expr, AffineDimExpr)
                and src_expr.position == res_expr.position):
            shared_loops.append(src_expr.position)
            reducible_dims.append(dim)

    # Step 2: shared loops must form an outermost prefix — drop any shared
    # loop whose ancestors are not all shared (lines 12-14).
    before_loop = len(shared_loops)
    while any(loop >= before_loop for loop in shared_loops):
        # Drop the deepest offending loop and its data dimension.
        worst = max(range(len(shared_loops)), key=lambda i: shared_loops[i])
        shared_loops.pop(worst)
        reducible_dims.pop(worst)
        before_loop = len(shared_loops)

    # Step 3: assemble the buffer shape — element size for reducible dims,
    # full extent otherwise (line 15).
    reducible = set(reducible_dims)
    buf_shape = tuple(
        src.element_size(dim) if dim in reducible else full_shape[dim]
        for dim in range(src.rank)
    )
    ordered_loops = tuple(sorted(shared_loops))
    return ConverterSpec(buf_shape=buf_shape, before_loop=before_loop,
                         shared_loops=ordered_loops, source=src, result=res)


def converter_cost_bytes(src: ITensorType, res: ITensorType) -> float:
    """On-chip memory cost (bytes) of converting ``src`` to ``res``.

    Returns 0 when the two types are compatible (no converter needed).
    """
    if src.is_compatible_with(res):
        return 0.0
    return infer_converter(src, res).buffer_bytes
