"""Path integration for dX = f(X,t) dt + g(X,t) dB under a volatility scenario.

The ambiguous driver is realized per step as dB_i = sqrt(v_i) dW_i with the
scenario fixing v_i from pre-step information, so feedback policies are
adapted by construction.  Schemes:

    euler     X_{i+1} = X_i + f dtau_i + g dB_i
    milstein  adds 0.5 * g * g_x * v_i * (dW_i^2 - dtau_i), with g_x taken
              symbolically

A run is truncated and flagged once |X| crosses the explosion threshold or
turns non-finite; if the failure traces to an expression domain violation
(log of a negative state, division by zero) the domain error is raised
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_float_columns
from .expr import Expr, _codegen, _compile, check_domain, differentiate
from .gcalc import AmbiguityBounds
from .scenario import (
    PathBundle,
    VolatilityScenario,
    _check_grid,
    standard_increments,
    variance_stream,
)

__all__ = [
    "SdeSpec",
    "SimulationRun",
    "EXPLOSION_THRESHOLD",
    "integrate",
    "linear_closed_form",
    "write_path_csv",
]

EXPLOSION_THRESHOLD = 1e12

METHODS = ("euler", "milstein")


@dataclass(frozen=True)
class SdeSpec:
    """Scalar SDE data: drift f(x,t), diffusion g(x,t), start (x0, t0)."""

    f: Expr
    g: Expr
    x0: float
    t0: float = 0.0


@dataclass
class SimulationRun:
    bundle: PathBundle
    first_bad_index: int | None = None

    @property
    def exploded(self) -> bool:
        return self.first_bad_index is not None


def _scheme(spec: SdeSpec, method: str):
    """The step of integrate and of the lane engine: (step, exprs).

    step(x, t, dtau, v, dW, dB) is one generated lambda, the same bits on
    Python floats and on lane arrays; it evaluates g once and squares dW
    as a product (libm pow can differ in the last bit).  exprs (f, g and
    Milstein's g_x) are what a non-finite step re-checks (check_domain)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    exprs = (spec.f, spec.g) + (
        (differentiate(spec.g, "x"),) if method == "milstein" else ()
    )
    f, g, *gx = map(_codegen, exprs)
    body = f"x + {f} * dtau + (g := {g}) * dB"
    if gx:
        body += f" + 0.5 * g * {gx[0]} * v * (dW * dW - dtau)"
    return _compile("x, t, dtau, v, dW, dB", body), exprs


def integrate(
    spec: SdeSpec,
    s: VolatilityScenario,
    b: AmbiguityBounds,
    grid: np.ndarray,
    seed: int,
    method: str = "euler",
    path_index: int = 0,
) -> SimulationRun:
    """Integrate a single path; returns the bundle with X filled.

    The Wiener stream is keyed by (seed, path_index), so the same call is
    bitwise reproducible and distinct paths are independent.
    """
    step, exprs = _scheme(spec, method)
    grid = _check_grid(grid)
    if not math.isclose(float(grid[0]), spec.t0, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError("grid must start at the spec's t0")
    var_fn = variance_stream(s, b, grid, seed, path_index)
    dtau = np.diff(grid)
    n = dtau.size
    z = standard_increments(seed, path_index, n)
    dW = z * np.sqrt(dtau)

    # the loop reads and appends Python floats: indexing or storing into an
    # array would cost more per step than the step arithmetic
    ts, dts, dWs = grid.tolist(), dtau.tolist(), dW.tolist()
    v, dB, X = [], [], [float(spec.x0)]
    first_bad = None
    x = X[0]
    with np.errstate(all="ignore"):
        for i in range(n):
            ti = ts[i]
            dt_i = dts[i]
            vi = float(var_fn(i, ti, x))
            v.append(vi)
            dW_i = dWs[i]
            dB_i = math.sqrt(vi) * dW_i
            dB.append(dB_i)
            x_new = float(step(x, ti, dt_i, vi, dW_i, dB_i))
            if not math.isfinite(x_new) or abs(x_new) > EXPLOSION_THRESHOLD:
                if not math.isfinite(x_new):
                    check_domain(exprs, x, ti)
                first_bad = i + 1
                X.append(x_new if math.isfinite(x_new) else math.nan)
                break
            x = x_new
            X.append(x)
    # after an explosion X is nan, v repeats its last rate and dB is 0
    tail = n - len(v)
    v = np.array(v + v[-1:] * tail)
    dB = np.array(dB + [0.0] * tail)
    X = np.array(X + [math.nan] * tail)
    bundle = PathBundle(grid=grid, dW=dW, v=v, dB=dB, X=X)
    return SimulationRun(bundle=bundle, first_bad_index=first_bad)


def linear_closed_form(
    alpha: float, beta: float, bundle: PathBundle, x0: float = 1.0
) -> np.ndarray:
    """Exact grid-point solution of dX = -alpha X dt + beta X dB for the
    bundle's realized driver:

        X(t_k) = x0 * exp(-alpha (t_k - t_0) - beta^2/2 * qv_k
                          + beta * sum_{i<k} sqrt(v_i) dW_i)
    """
    grid = bundle.grid
    mart = np.concatenate([[0.0], np.cumsum(np.sqrt(bundle.v) * bundle.dW)])
    return x0 * np.exp(
        -alpha * (grid - grid[0]) - 0.5 * beta * beta * bundle.qv + beta * mart
    )


def write_path_csv(path, run: SimulationRun) -> None:
    """Write one run as CSV with columns t, W, v, B, qv, X.

    W and B are the cumulative Wiener and ambiguous-driver paths.  v on row
    k is the rate of the step starting at t_k; the final row repeats the
    last step's rate.  Floats carry 17 significant digits so replays are
    byte-identical.
    """
    bundle = run.bundle
    columns = (
        bundle.grid,
        np.concatenate([[0.0], np.cumsum(bundle.dW)]),
        np.concatenate([bundle.v, bundle.v[-1:]]),
        np.concatenate([[0.0], np.cumsum(bundle.dB)]),
        bundle.qv,
        bundle.X,
    )
    write_float_columns(path, ("t", "W", "v", "B", "qv", "X"), columns)
