"""Band arithmetic: the sublinear generator pair g_upper / g_lower."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsde.gcalc import AmbiguityBounds, g_lower, g_upper


class TestAmbiguityBounds:
    def test_variance_band(self):
        b = AmbiguityBounds(0.5, 1.0)
        assert b.v_lower == 0.25
        assert b.v_upper == 1.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            AmbiguityBounds(1.0, 0.5)
        with pytest.raises(ValueError):
            AmbiguityBounds(0.0, 1.0)
        with pytest.raises(ValueError):
            AmbiguityBounds(-1.0, 1.0)
        with pytest.raises(ValueError):
            AmbiguityBounds(1.0, float("inf"))

    def test_variance_edge_must_be_finite(self):
        """A sigma_upper whose square overflows is refused: a band edge of
        inf would reach the level draws of piecewise_random."""
        with pytest.raises(ValueError, match="overflows"):
            AmbiguityBounds(1.0, 1e300)
        assert AmbiguityBounds(1.0, 1e154).v_upper == 1e308

    def test_degenerate_band_allowed(self):
        b = AmbiguityBounds(2.0, 2.0)
        assert b.v_lower == b.v_upper == 4.0

    def test_clamp(self):
        b = AmbiguityBounds(0.5, 1.0)
        np.testing.assert_array_equal(
            b.clamp(np.array([0.0, 0.3, 1.5])), [0.25, 0.3, 1.0]
        )


class TestGeneratorValues:
    def test_unit_band(self):
        b = AmbiguityBounds(1.0, 1.0)
        assert g_upper(2.0, b) == 1.0
        assert g_upper(0.0, b) == 0.0
        assert g_upper(-2.0, b) == -1.0

    def test_wide_band_negative_curvature(self):
        b = AmbiguityBounds(0.5, 1.0)
        # negative part is charged at the band floor
        assert g_upper(-2.0, b) == -0.25
        assert g_upper(2.0, b) == 1.0
        assert g_lower(2.0, b) == 0.25
        assert g_lower(-2.0, b) == -1.0

    def test_mirror_identity(self):
        b = AmbiguityBounds(0.3, 1.7)
        alphas = np.linspace(-5, 5, 101)
        np.testing.assert_array_equal(g_lower(alphas, b), -g_upper(-alphas, b))

    def test_sandwich_over_band(self):
        """g_lower(a) <= a*v/2 <= g_upper(a) for every v in the band,
        exactly (products of floats with nonneg v are monotone)."""
        b = AmbiguityBounds(0.5, 2.0)
        alphas = np.linspace(-7, 7, 100)
        vs = np.linspace(b.v_lower, b.v_upper, 100)
        A, V = np.meshgrid(alphas, vs, indexing="ij")
        mid = 0.5 * A * V
        lo = g_lower(A, b)
        hi = g_upper(A, b)
        assert np.all(lo <= mid)
        assert np.all(mid <= hi)

    def test_array_support(self):
        b = AmbiguityBounds(0.5, 1.0)
        a = np.array([-2.0, 0.0, 2.0])
        np.testing.assert_array_equal(g_upper(a, b), [-0.25, 0.0, 1.0])


# ---------------------------------------------------------------------------
# sublinearity properties

@given(
    a1=st.floats(-100, 100),
    a2=st.floats(-100, 100),
    lam=st.floats(0, 50),
    lo=st.floats(0.1, 2.0),
    width=st.floats(0, 2.0),
)
@settings(max_examples=300, deadline=None)
def test_generator_axioms(a1, a2, lam, lo, width):
    b = AmbiguityBounds(lo, lo + width)
    # monotone in alpha
    if a1 <= a2:
        assert g_upper(a1, b) <= g_upper(a2, b)
    # subadditive: g(a1 + a2) <= g(a1) + g(a2), up to roundoff
    tol = 1e-12 * max(1.0, abs(a1), abs(a2)) * b.v_upper
    assert g_upper(a1 + a2, b) <= g_upper(a1, b) + g_upper(a2, b) + tol
    # positively homogeneous
    assert g_upper(lam * a1, b) == pytest.approx(
        lam * g_upper(a1, b), rel=1e-12, abs=1e-300
    )
    # dominates the lower generator
    assert g_lower(a1, b) <= g_upper(a1, b)


def test_collapsed_band_is_linear():
    b = AmbiguityBounds(0.8, 0.8)
    alphas = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(g_upper(alphas, b), 0.5 * 0.64 * alphas, rtol=1e-15)
    np.testing.assert_allclose(g_lower(alphas, b), 0.5 * 0.64 * alphas, rtol=1e-15)
