"""Tests for repro.ir.affine."""

import pytest

from repro.ir.affine import (
    AffineConstantExpr,
    AffineDimExpr,
    AffineMap,
)


class TestAffineExpr:
    def test_dim_expr_evaluates_to_index(self):
        assert AffineDimExpr(1).evaluate([10, 20, 30]) == 20

    def test_constant_expr_ignores_indices(self):
        assert AffineConstantExpr(7).evaluate([1, 2, 3]) == 7

    def test_negative_dim_position_rejected(self):
        with pytest.raises(ValueError):
            AffineDimExpr(-1)

    def test_used_dims(self):
        assert AffineDimExpr(2).used_dims() == frozenset({2})
        assert AffineConstantExpr(0).used_dims() == frozenset()


class TestAffineMap:
    def test_identity_map(self):
        identity = AffineMap.identity(3)
        assert identity.evaluate([4, 5, 6]) == (4, 5, 6)

    def test_permutation_map(self):
        perm = AffineMap.permutation([1, 0])
        assert perm.evaluate([3, 7]) == (7, 3)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            AffineMap.permutation([0, 0])

    def test_projection_drops_dims(self):
        proj = AffineMap.projection(3, [2, 0])
        assert proj.evaluate([1, 2, 3]) == (3, 1)
        assert proj.is_projected_permutation()
        assert proj.used_dims() == frozenset({0, 2})

    def test_out_of_range_dim_rejected(self):
        with pytest.raises(ValueError):
            AffineMap.from_results(2, [0, 2])

    def test_evaluate_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            AffineMap.identity(2).evaluate([1, 2, 3])

    def test_str_rendering(self):
        amap = AffineMap.from_results(2, [1, 0])
        assert str(amap) == "(d0, d1) -> (d1, d0)"

    def test_paper_figure5_map_semantics(self):
        """The (d0,d1,d2)->(d2,d0) map of Figure 5(c) drops d1 (re-access)."""
        amap = AffineMap.from_results(3, [2, 0])
        assert amap.used_dims() == frozenset({0, 2})
        assert amap.evaluate([2, 1, 4]) == (4, 2)
