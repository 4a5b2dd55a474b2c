"""Design space exploration: Linalg tiling space, unrolling, permutation."""

from repro.dse.explorer import (
    BlackBoxOptimizer,
    StudyResult,
    Trial,
    build_tiling_space,
    default_search_space,
    explore_tiling_space,
)
from repro.dse.permutation import (
    apply_permutation_heuristic,
    reduction_outward_permutation,
    streaming_tile_loop_order,
)
from repro.dse.tiling_space import KernelNode, TilingSpace
from repro.dse.unrolling import (
    UnrollDecision,
    intensity_driven_unrolling,
    max_unroll_for,
)

__all__ = [
    "BlackBoxOptimizer",
    "KernelNode",
    "StudyResult",
    "TilingSpace",
    "Trial",
    "UnrollDecision",
    "apply_permutation_heuristic",
    "build_tiling_space",
    "default_search_space",
    "explore_tiling_space",
    "intensity_driven_unrolling",
    "max_unroll_for",
    "reduction_outward_permutation",
    "streaming_tile_loop_order",
]
