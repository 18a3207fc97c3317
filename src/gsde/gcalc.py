"""Volatility-ambiguity primitives.

A driver with ambiguous volatility is summarized by a band of admissible
variance rates [sigma_lower^2, sigma_upper^2].  The two functions below
are the worst-case and best-case second-order coefficients over that
band: for a curvature alpha,

    g_upper(alpha) = (sigma_upper^2 * alpha_+ - sigma_lower^2 * alpha_-) / 2
    g_lower(alpha) = (sigma_lower^2 * alpha_+ - sigma_upper^2 * alpha_-) / 2

so g_lower(alpha) <= alpha * v / 2 <= g_upper(alpha) for every admissible
v.  Both accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["AmbiguityBounds", "g_upper", "g_lower"]


@dataclass(frozen=True)
class AmbiguityBounds:
    """Volatility band 0 < sigma_lower <= sigma_upper < inf, with a finite
    variance edge sigma_upper^2.

    Stores standard deviations; the variance edges are exposed as
    v_lower / v_upper.
    """

    sigma_lower: float
    sigma_upper: float

    def __post_init__(self):
        sl, su = self.sigma_lower, self.sigma_upper
        if not (math.isfinite(sl) and math.isfinite(su)):
            raise ValueError("volatility bounds must be finite")
        if not (0 < sl <= su):
            raise ValueError(
                f"need 0 < sigma_lower <= sigma_upper, got ({sl}, {su})"
            )
        if not math.isfinite(su * su):
            raise ValueError(f"sigma_upper^2 overflows, got sigma_upper = {su}")

    @property
    def v_lower(self) -> float:
        return self.sigma_lower * self.sigma_lower

    @property
    def v_upper(self) -> float:
        return self.sigma_upper * self.sigma_upper

    def clamp(self, v):
        """Clip a variance rate (scalar or array) into the band."""
        return np.clip(v, self.v_lower, self.v_upper)


def g_upper(alpha, b: AmbiguityBounds):
    """Worst-case half-variance coefficient: max over the band of alpha*v/2."""
    return 0.5 * (
        b.v_upper * np.maximum(alpha, 0.0) - b.v_lower * np.maximum(-alpha, 0.0)
    )


def g_lower(alpha, b: AmbiguityBounds):
    """Best-case half-variance coefficient: min over the band of alpha*v/2."""
    return 0.5 * (
        b.v_lower * np.maximum(alpha, 0.0) - b.v_upper * np.maximum(-alpha, 0.0)
    )
