"""Path integration for dX = f(X,t) dt + g(X,t) dB under a volatility scenario.

The ambiguous driver is realized per step as dB_i = sqrt(v_i) dW_i with the
scenario fixing v_i from pre-step information, so feedback policies are
adapted by construction.  Schemes:

    euler     X_{i+1} = X_i + f dtau_i + g dB_i
    milstein  adds 0.5 * g * g_x * v_i * (dW_i^2 - dtau_i), with g_x taken
              symbolically

A run is truncated and flagged once |X| crosses the explosion threshold or
turns non-finite.  Both stepping loops run under expr.KERNEL_MODE, so a step
or a policy or observer kernel that leaves an expression's domain (log of a
negative state, division by zero) raises EvalDomainError naming the node,
even where its value comes out finite; the kernels re-check themselves.

integrate steps one path on Python floats.  The lane engine, _run_lanes,
serves the estimator: it advances all (scenario, path) pairs of a call as
one scenario-major array of lanes, so a family of k scenarios on n paths
steps k*n lanes at once.  Wiener normals come in step-major Philox blocks
of 256 steps, so each step reads one contiguous row; each lane's
generator draws its row of a cache-sized stage, and every 128 lanes the
stage is copied transposed into the block.  While no lane is flagged a
step checks for explosions with a single max of |X|, and masks appear
only after the first flag.  Both take the one step of _scheme, so lane
(q, p) equals integrate's path p under scenario q, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvio import write_float_columns
from .expr import KERNEL_MODE, Expr, _codegen, _compile, differentiate
from .gcalc import AmbiguityBounds
# stream_generator and variance_stream are imported by name: perfbench's
# tracer counts Philox draws and variance calls by patching this namespace
from .scenario import (
    WIENER_STREAM,
    VolatilityScenario,
    _check_grid,
    standard_increments,
    stream_generator,
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

# steps per Philox block of the lane engine: long enough that a
# standard_normal call's fixed cost is small against its draws
_BLOCK_STEPS = 256
# lanes drawn into the stage before it is copied transposed into the
# block: 128 rows of 256 doubles (256 KB) stay in cache for the copy
_STAGE_LANES = 128


@dataclass(frozen=True)
class SdeSpec:
    """Scalar SDE data: drift f(x,t), diffusion g(x,t), start (x0, t0)."""

    f: Expr
    g: Expr
    x0: float
    t0: float = 0.0


@dataclass
class PathBundle:
    """One sampled driver path over a grid of N steps.

    grid has N+1 points; dW, v, dB and dqv have N entries (per step); qv
    has N+1 entries with qv[0] = 0 and qv = cumsum(dqv).  dqv_i = v_i *
    dtau_i is derived from v here and stored explicitly: multiplication by
    a positive step is monotone in v, so the band sandwich on per-step
    increments is exact.  X is the integrated state at each grid point.
    """

    grid: np.ndarray
    dW: np.ndarray
    v: np.ndarray
    dB: np.ndarray
    X: np.ndarray
    dqv: np.ndarray = field(init=False)
    qv: np.ndarray = field(init=False)

    def __post_init__(self):
        self.dqv = self.v * np.diff(self.grid)
        self.qv = np.concatenate([[0.0], np.cumsum(self.dqv)])


@dataclass
class SimulationRun:
    bundle: PathBundle
    first_bad_index: int | None = None

    @property
    def exploded(self) -> bool:
        return self.first_bad_index is not None


def _scheme(spec: SdeSpec, method: str, scalar: bool):
    """The step of integrate (scalar) and of the lane engine.

    step(x, t, dtau, v, dW, dB) is one generated kernel body, the same
    bits on Python floats and on lane arrays; it evaluates g once and
    squares dW as a product (libm pow can differ in the last bit).  The
    scalar form converts each numpy call's result to float (see
    _codegen), so on Python floats it returns a Python float.  Like every
    compiled kernel it re-checks itself under KERNEL_MODE, against f, g
    and Milstein's g_x."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    exprs = (spec.f, spec.g) + (
        (differentiate(spec.g, "x"),) if method == "milstein" else ()
    )
    f, g, *gx = (_codegen(e, scalar) for e in exprs)
    body = f"x + {f} * dtau + (g := {g}) * dB"
    if gx:
        body += f" + 0.5 * g * {gx[0]} * v * (dW * dW - dtau)"
    return _compile("x, t, dtau, v, dW, dB", body, exprs)


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
    step = _scheme(spec, method, scalar=True)
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
    with np.errstate(**KERNEL_MODE):
        for i in range(n):
            ti = ts[i]
            dt_i = dts[i]
            vi = float(var_fn(i, ti, x))
            v.append(vi)
            dW_i = dWs[i]
            dB_i = math.sqrt(vi) * dW_i
            dB.append(dB_i)
            x_new = step(x, ti, dt_i, vi, dW_i, dB_i)
            if not math.isfinite(x_new) or abs(x_new) > EXPLOSION_THRESHOLD:
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


def _run_lanes(
    spec: SdeSpec,
    scenarios,
    b: AmbiguityBounds,
    grid: np.ndarray,
    seed: int,
    n_paths: int,
    method: str,
    observer,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance n_paths paths under every scenario together (see the module
    docstring); returns the final state and the flags of every lane.

    Scenario q owns lanes q*n_paths to (q+1)*n_paths - 1, and its variance
    policy is called once per step on that slice of X.  Lane (q, p) draws
    path p's Wiener stream from its own Philox generator.  A block holds
    _BLOCK_STEPS steps by lanes: each generator draws its lane's steps into
    a row of the stage, and every _STAGE_LANES lanes the stage is copied
    transposed into the block's columns, so step j of a block reads row j.

    alive is True until the first flag and ~flagged after it; the observer
    passes it as `where=` to its updates.  A lane whose state leaves
    [-threshold, threshold] or turns non-finite is flagged and frozen at
    NaN.  The loop runs under KERNEL_MODE: a kernel (the step, a feedback
    policy's, an observer's) that leaves its domain at a live lane raises
    EvalDomainError naming the node, and overflow only flags the lane.
    """
    step = _scheme(spec, method, scalar=False)
    k = len(scenarios)
    lanes = k * n_paths
    n_steps = grid.size - 1
    paths = np.arange(n_paths)
    policies = [
        (slice(q * n_paths, (q + 1) * n_paths),
         variance_stream(s, b, grid, seed, paths))
        for q, s in enumerate(scenarios)
    ]
    gens = [
        stream_generator(seed, WIENER_STREAM, p)
        for _ in range(k)
        for p in range(n_paths)
    ]
    block = np.empty((min(_BLOCK_STEPS, n_steps), lanes))
    stage = np.empty((min(_STAGE_LANES, lanes), block.shape[0]))

    X = np.full(lanes, float(spec.x0))
    v = np.empty(lanes)
    alive = True
    flagged = np.zeros(lanes, dtype=bool)
    sqrt_dtau = np.sqrt(np.diff(grid))

    with np.errstate(**KERNEL_MODE):
        for i in range(n_steps):
            j = i % _BLOCK_STEPS
            if j == 0:
                width = min(_BLOCK_STEPS, n_steps - i)
                for start in range(0, lanes, _STAGE_LANES):
                    run = gens[start:start + _STAGE_LANES]
                    for row, gen in zip(stage, run):
                        gen.standard_normal(out=row[:width])
                    block[:width, start:start + len(run)] = (
                        stage[:len(run), :width].T
                    )
            t = grid[i]
            dtau = grid[i + 1] - grid[i]
            dW = block[j] * sqrt_dtau[i]
            for lane_slice, var_fn in policies:
                v[lane_slice] = var_fn(i, t, X[lane_slice])
            dB = np.sqrt(v) * dW
            observer.pre_step(i, t, X, v, dW, dB, dtau, alive)
            Xn = step(X, t, dtau, v, dW, dB)
            if alive is True and np.abs(Xn).max() <= EXPLOSION_THRESHOLD:
                X = Xn
            else:
                flagged |= alive & ~(np.abs(Xn) <= EXPLOSION_THRESHOLD)
                alive = ~flagged
                X = np.where(alive, Xn, np.nan)
            observer.post_step(i, grid[i + 1], X, alive)
    return X, flagged


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


def write_path_csv(path, run: SimulationRun, time_cells=None) -> None:
    """Write one run as CSV with columns t, W, v, B, qv, X.

    W and B are the cumulative Wiener and ambiguous-driver paths.  v on row
    k is the rate of the step starting at t_k; the final row repeats the
    last step's rate.  Floats carry 17 significant digits so replays are
    byte-identical.  time_cells, if given, must be float_cells of the
    run's grid: the runs of one grid share them, so a caller writing many
    paths formats the t column once.
    """
    bundle = run.bundle
    columns = (
        bundle.grid if time_cells is None else time_cells,
        np.concatenate([[0.0], np.cumsum(bundle.dW)]),
        np.concatenate([bundle.v, bundle.v[-1:]]),
        np.concatenate([[0.0], np.cumsum(bundle.dB)]),
        bundle.qv,
        bundle.X,
    )
    write_float_columns(path, ("t", "W", "v", "B", "qv", "X"), columns)
