"""Linalg tiling and per-operand itensor type inference (Section 4.1).

Tiling turns every structured op into a tile-loop nest: ``scf.for`` loops
over tiles, ``extract_slice`` of input tiles, the tiled computation, and
``insert_slice`` of output tiles.  The Linalg-to-dataflow conversion then
derives the itensor type of each kernel port from exactly this structure:

* the loop nest (trip counts and step sizes) defines the iteration space;
* the slice offsets define the iteration map (which loop scans which data
  dimension — loops that do not appear re-access the operand);
* the slice sizes define the element shape.

A :class:`TilingConfig` captures the Linalg tiling design space of Section
5.1 for one op: tile sizes, loop permutation and unroll factor.  Interface
vectorisation follows from the unroll factor and is decided later, on the
dataflow graph (:mod:`repro.dataflow.vectorize`).  :func:`tile_op` applies
a config and returns the tiled-loop structure plus the inferred itensor
type for every operand and the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.ir.ops import LinalgOp
from repro.itensor.itensor_type import ITensorType, operand_itensor


@dataclass
class TilingConfig:
    """Tiling-space decision for a single Linalg op.

    Attributes:
        tile_sizes: Tile size per iteration dim (clamped to the dim's extent).
        permutation: Tile-loop order, outermost first, as iteration-dim
            indices.  Defaults to the original order.
        unroll_factor: Spatial unrolling (parallelism) inside the tile; the
            analytical HLS model translates it into DSP usage and pipeline II.
    """

    tile_sizes: List[int]
    permutation: Optional[List[int]] = None
    unroll_factor: int = 1

    def normalized(self, op: LinalgOp,
                   bounds: Optional[Sequence[int]] = None) -> "TilingConfig":
        """Clamp tile sizes to loop bounds and fill defaults.

        ``bounds`` are the op's loop bounds, inferred when omitted.
        """
        if bounds is None:
            bounds = op.loop_bounds()
        sizes = list(self.tile_sizes)
        if len(sizes) < len(bounds):
            sizes = sizes + [sizes[-1] if sizes else 1] * (len(bounds) - len(sizes))
        sizes = [max(1, min(int(size), bound)) for size, bound in zip(sizes, bounds)]
        # Shrink to the largest divisor <= size so tiles evenly divide bounds.
        sizes = [_largest_divisor(bound, size) for size, bound in zip(sizes, bounds)]
        perm = list(self.permutation) if self.permutation is not None else list(
            range(len(bounds)))
        if sorted(perm) != list(range(len(bounds))):
            raise ValueError(f"invalid loop permutation {perm} for {op.name}")
        return TilingConfig(sizes, perm, max(1, self.unroll_factor))


def _largest_divisor(bound: int, limit: int) -> int:
    """Largest divisor of ``bound`` that is <= ``limit`` (at least 1)."""
    limit = max(1, min(limit, bound))
    for candidate in range(limit, 0, -1):
        if bound % candidate == 0:
            return candidate
    return 1


@dataclass
class TiledOp:
    """The result of tiling one Linalg op.

    Attributes:
        op: The original op.
        config: The normalised tiling config used.
        loop_bounds: Trip count of every iteration dim of the untiled op.
        loop_tripcounts: Trip count of each tile loop.
        loop_steps: Step (tile size) of each tile loop.
        input_itensors: Inferred itensor type per input operand.
        result_itensor: Inferred itensor type of the result.
    """

    op: LinalgOp
    config: TilingConfig
    loop_bounds: List[int]
    loop_tripcounts: List[int]
    loop_steps: List[int]
    input_itensors: List[ITensorType]
    result_itensor: ITensorType

    @property
    def iteration_count(self) -> int:
        """Points of the untiled op's iteration space."""
        return math.prod(self.loop_bounds)


def tile_op(op: LinalgOp, config: TilingConfig,
            bounds: Optional[Sequence[int]] = None) -> TiledOp:
    """Tile a structured op and infer all boundary itensor types.

    ``bounds`` are the op's loop bounds, inferred when omitted.
    """
    if bounds is None:
        bounds = op.loop_bounds()
    config = config.normalized(op, bounds)
    tile_sizes = config.tile_sizes
    loop_dims = list(config.permutation or range(op.num_loops))

    loop_tripcounts = [max(1, math.ceil(bounds[d] / tile_sizes[d])) for d in loop_dims]
    loop_steps = [tile_sizes[d] for d in loop_dims]

    input_itensors = []
    for operand, imap in zip(op.inputs, op.indexing_maps[:-1]):
        input_itensors.append(
            operand_itensor(operand.type, imap, loop_dims, tile_sizes, bounds)
        )

    # The result streams one tile per parallel-loop iteration; reduction loops
    # are dropped from its iteration space (the tile is only pushed once the
    # reduction completes).
    result_itensor = operand_itensor(
        op.result_type, op.indexing_maps[-1], loop_dims, tile_sizes, bounds,
        drop_loops=op.reduction_dims,
    )

    return TiledOp(op=op, config=config, loop_bounds=list(bounds),
                   loop_tripcounts=loop_tripcounts, loop_steps=loop_steps,
                   input_itensors=input_itensors, result_itensor=result_itensor)


def default_tiling(op: LinalgOp, default_tile_size: int = 16,
                   bounds: Optional[Sequence[int]] = None) -> TilingConfig:
    """The paper's naive tiling: one hyperparameter applied to all dims.

    ``bounds`` are the op's loop bounds, inferred when omitted.
    """
    if bounds is None:
        bounds = op.loop_bounds()
    return TilingConfig([min(default_tile_size, b) for b in bounds]).normalized(
        op, bounds)


def tile_graph(ops: Sequence[LinalgOp],
               configs: Dict[str, TilingConfig]) -> Dict[str, TiledOp]:
    """Tile every op in a graph with its per-op config (or a default),
    inferring each op's loop bounds once."""
    tiled: Dict[str, TiledOp] = {}
    for op in ops:
        bounds = op.loop_bounds()
        config = configs.get(op.name) or default_tiling(op, bounds=bounds)
        tiled[op.name] = tile_op(op, config, bounds)
    return tiled
