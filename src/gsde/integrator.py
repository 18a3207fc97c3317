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

from .csvio import write_csv
from .expr import Expr, check_domain, compile_fn, differentiate
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
    exploded: bool = False
    first_bad_index: int | None = None


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
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    grid = _check_grid(grid)
    if not math.isclose(float(grid[0]), spec.t0, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError("grid must start at the spec's t0")
    dtau = np.diff(grid)
    n = dtau.size
    z = standard_increments(seed, path_index, n)
    dW = z * np.sqrt(dtau)
    var_fn = variance_stream(s, b, grid, seed, path_index)
    f_fn = compile_fn(spec.f)
    g_fn = compile_fn(spec.g)
    gx_fn = compile_fn(differentiate(spec.g, "x")) if method == "milstein" else None

    v = np.empty(n)
    dB = np.empty(n)
    X = np.empty(n + 1)
    X[0] = spec.x0
    exploded = False
    first_bad = None
    x = float(spec.x0)
    with np.errstate(all="ignore"):
        for i in range(n):
            ti = float(grid[i])
            dt_i = float(dtau[i])
            vi = float(np.asarray(var_fn(i, ti, x)).reshape(()))
            v[i] = vi
            dB_i = math.sqrt(vi) * float(dW[i])
            dB[i] = dB_i
            x_new = x + float(f_fn(x, ti)) * dt_i + float(g_fn(x, ti)) * dB_i
            if gx_fn is not None:
                x_new += (
                    0.5
                    * float(g_fn(x, ti))
                    * float(gx_fn(x, ti))
                    * vi
                    * (float(dW[i]) ** 2 - dt_i)
                )
            if not math.isfinite(x_new) or abs(x_new) > EXPLOSION_THRESHOLD:
                if not math.isfinite(x_new):
                    check_domain((spec.f, spec.g), x, ti)
                exploded = True
                first_bad = i + 1
                X[i + 1] = x_new if math.isfinite(x_new) else math.nan
                X[i + 2 :] = math.nan
                v[i + 1 :] = v[i]
                dB[i + 1 :] = 0.0
                break
            x = x_new
            X[i + 1] = x
    dqv = v * dtau
    qv = np.concatenate([[0.0], np.cumsum(dqv)])
    bundle = PathBundle(grid=grid, dW=dW, v=v, dB=dB, dqv=dqv, qv=qv, X=X)
    return SimulationRun(bundle=bundle, exploded=exploded, first_bad_index=first_bad)


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
    n = bundle.dW.size
    columns = (
        bundle.grid,
        np.concatenate([[0.0], np.cumsum(bundle.dW)]),
        np.concatenate([bundle.v, bundle.v[-1:]]),
        np.concatenate([[0.0], np.cumsum(bundle.dB)]),
        bundle.qv,
        bundle.X if bundle.X is not None else np.full(n + 1, np.nan),
    )
    write_csv(
        path, ("t", "W", "v", "B", "qv", "X"), zip(*(c.tolist() for c in columns))
    )
