"""Volatility scenarios and driver-path sampling.

A scenario is an adapted volatility policy: a rule that fixes the variance
rate v_i of each time step from information available at the step start
(clock time, current state).  Sampling a scenario over a grid yields a
PathBundle: Wiener increments dW_i, variance rates v_i, ambiguous-driver
increments dB_i = sqrt(v_i) dW_i, and the cumulative quadratic variation
qv.  Every emitted rate is clamped into the ambiguity band, so increments
of qv always sit between the band edges times elapsed time.

Randomness is counter-based: the Wiener draw for (seed, path p, step i) is
the i-th value of a Philox stream keyed by (seed, stream id, p).  Streams
for different paths never touch shared state, so paths can be generated in
any order or in parallel and replays are bitwise identical.  Level draws
for PiecewiseRandom use a separate stream id so they never perturb the
Wiener increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .csvio import fmt
from .expr import Expr, check_domain, compile_fn, differentiate
from .gcalc import AmbiguityBounds

__all__ = [
    "VolatilityScenario",
    "Constant",
    "BangBangInTime",
    "BangBangInX",
    "FeedbackSignVxx",
    "PiecewiseRandom",
    "ScenarioError",
    "PathBundle",
    "sample_path",
    "enumerate_family",
    "parse_scenario",
    "uniform_grid",
    "stream_generator",
    "standard_increments",
    "variance_stream",
]

WIENER_STREAM = 0
LEVEL_STREAM = 1


class ScenarioError(Exception):
    pass


def stream_generator(seed: int, stream: int, path_index: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream id, path index); the seed
    must lie in [0, 2^64)."""
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must lie in [0, 2^64)")
    if path_index < 0 or path_index >= (1 << 56):
        raise ValueError("path_index out of range")
    key = np.array(
        [seed, ((stream & 0xFF) << 56) | path_index],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def standard_increments(seed: int, path_index: int, n: int) -> np.ndarray:
    """The first n standard-normal draws of path path_index's Wiener stream."""
    return stream_generator(seed, WIENER_STREAM, path_index).standard_normal(n)


def uniform_grid(t0: float, horizon: float, dt: float) -> np.ndarray:
    """Uniform time grid over [t0, t0 + horizon] with step ~dt."""
    if horizon <= 0 or dt <= 0:
        raise ValueError("horizon and dt must be positive")
    n = max(1, round(horizon / dt))
    return np.linspace(t0, t0 + horizon, n + 1)


# ---------------------------------------------------------------------------
# scenario kinds

@dataclass(frozen=True)
class VolatilityScenario:
    """Base scenario type.  needs_state marks feedback policies, which can
    only be sampled coupled to an integrator (the rule reads the pre-step
    state); standalone sample_path rejects them."""

    needs_state: ClassVar[bool] = False

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(VolatilityScenario):
    """Fixed variance rate (clamped into the band at emission)."""

    v: float

    def label(self) -> str:
        return f"constant:{fmt(self.v)}"


@dataclass(frozen=True)
class BangBangInTime(VolatilityScenario):
    """Piecewise-constant-in-time rates: levels[j] applies for t < times[j];
    after the last switch time the last level holds."""

    times: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.levels) or not self.times:
            raise ValueError("need matching nonempty times and levels")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("switch times must be strictly increasing")

    def label(self) -> str:
        pairs = ",".join(
            f"{fmt(v)}@{fmt(t)}" for v, t in zip(self.levels, self.times)
        )
        return f"bangbang_t:{pairs}"

    def value_at(self, t) -> np.ndarray:
        idx = np.minimum(
            np.searchsorted(np.asarray(self.times), t, side="right"),
            len(self.levels) - 1,
        )
        return np.asarray(self.levels)[idx]


@dataclass(frozen=True)
class BangBangInX(VolatilityScenario):
    """State-feedback switch: v_below where x < x_star, else v_above."""

    x_star: float
    v_below: float
    v_above: float

    needs_state: ClassVar[bool] = True

    def label(self) -> str:
        return (
            f"bangbang_x:{fmt(self.x_star)},{fmt(self.v_below)},{fmt(self.v_above)}"
        )


@dataclass(frozen=True)
class FeedbackSignVxx(VolatilityScenario):
    """Curvature feedback for an energy function V: picks the upper band
    edge where V_xx(x, t) > 0 and the lower edge elsewhere (the rate that
    maximizes the second-order contribution to V along the path)."""

    V: Expr

    needs_state: ClassVar[bool] = True

    def label(self) -> str:
        return "feedback_vxx"

    def vxx(self) -> Expr:
        return differentiate(differentiate(self.V, "x"), "x")


@dataclass(frozen=True)
class PiecewiseRandom(VolatilityScenario):
    """Rate resampled uniformly from the band every `dwell` time units,
    from the path's level stream (independent of its Wiener stream)."""

    dwell: float

    def __post_init__(self):
        if not (self.dwell > 0):
            raise ValueError("dwell must be positive")

    def label(self) -> str:
        return f"piecewise_random:dwell={fmt(self.dwell)}"


# ---------------------------------------------------------------------------
# variance streams

def variance_stream(
    s: VolatilityScenario,
    b: AmbiguityBounds,
    grid: np.ndarray,
    seed: int,
    paths,
) -> Callable:
    """Build fn(i, t, x) -> variance rate(s) for step i starting at time t
    with pre-step state x.

    `paths` is a single path index or an array of indices; x matches its
    shape.  Deterministic kinds precompute per-step values; feedback kinds
    close over compiled state rules; PiecewiseRandom pre-draws each path's
    level sequence from its level stream.
    """
    lo, hi = b.v_lower, b.v_upper
    if isinstance(s, Constant):
        v = float(b.clamp(s.v))
        return lambda i, t, x: v
    if isinstance(s, BangBangInTime):
        per_step = b.clamp(s.value_at(np.asarray(grid[:-1], dtype=float)))
        return lambda i, t, x: per_step[i]
    if isinstance(s, BangBangInX):
        below = float(b.clamp(s.v_below))
        above = float(b.clamp(s.v_above))
        x_star = s.x_star
        return lambda i, t, x: np.where(x < x_star, below, above)
    if isinstance(s, FeedbackSignVxx):
        vxx = s.vxx()
        vxx_fn = compile_fn(vxx)

        def feedback(i, t, x):
            c = vxx_fn(x, t)
            if not np.isfinite(c).all():
                # re-check each live lane alone: one lane's overflow must
                # not hide another's domain violation
                xs, cs = np.broadcast_arrays(x, c)
                for xj in xs[~np.isfinite(cs) & np.isfinite(xs)].tolist():
                    check_domain((vxx,), xj, t)
            return np.where(c > 0, hi, lo)

        return feedback
    if isinstance(s, PiecewiseRandom):
        t0 = float(grid[0])
        n_levels = int(math.floor((float(grid[-1]) - t0) / s.dwell)) + 1
        step_idx = np.minimum(
            ((np.asarray(grid[:-1]) - t0) / s.dwell).astype(np.int64), n_levels - 1
        )
        scalar = np.isscalar(paths) or np.ndim(paths) == 0
        if scalar:
            gen = stream_generator(seed, LEVEL_STREAM, int(paths))
            levels = b.clamp(gen.uniform(lo, hi, n_levels))
            return lambda i, t, x: levels[step_idx[i]]
        idx = np.asarray(paths)
        levels = np.empty((idx.size, n_levels))
        for row, p in enumerate(idx):
            gen = stream_generator(seed, LEVEL_STREAM, int(p))
            levels[row] = b.clamp(gen.uniform(lo, hi, n_levels))
        return lambda i, t, x: levels[:, step_idx[i]]
    raise ScenarioError(f"unknown scenario kind {type(s).__name__}")


# ---------------------------------------------------------------------------
# path bundles

@dataclass
class PathBundle:
    """One sampled driver path over a grid of N steps.

    grid has N+1 points; dW, v, dB and dqv have N entries (per step); qv
    has N+1 entries with qv[0] = 0 and qv = cumsum(dqv).  dqv_i = v_i *
    dtau_i is stored explicitly: multiplication by a positive step is
    monotone in v, so the band sandwich on per-step increments is exact.
    X is filled by the integrator (None until then).
    """

    grid: np.ndarray
    dW: np.ndarray
    v: np.ndarray
    dB: np.ndarray
    dqv: np.ndarray
    qv: np.ndarray
    X: np.ndarray | None = None


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ScenarioError("grid must be one-dimensional with at least 2 points")
    if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise ScenarioError("grid must be finite and strictly increasing")
    return grid


def sample_path(
    s: VolatilityScenario,
    b: AmbiguityBounds,
    grid: np.ndarray,
    seed: int,
    path_index: int = 0,
) -> PathBundle:
    """Sample one driver path for a state-free scenario.

    Feedback kinds (BangBangInX, FeedbackSignVxx) need the pre-step state
    and are only available through the integrator; asking for them here is
    an error.
    """
    if s.needs_state:
        raise ScenarioError(
            f"{type(s).__name__} is a feedback policy; sample it through the integrator"
        )
    grid = _check_grid(grid)
    dtau = np.diff(grid)
    n = dtau.size
    z = standard_increments(seed, path_index, n)
    dW = z * np.sqrt(dtau)
    var_fn = variance_stream(s, b, grid, seed, path_index)
    v = np.empty(n)
    for i in range(n):
        v[i] = var_fn(i, grid[i], None)
    dB = np.sqrt(v) * dW
    dqv = v * dtau
    qv = np.concatenate([[0.0], np.cumsum(dqv)])
    return PathBundle(grid=grid, dW=dW, v=v, dB=dB, dqv=dqv, qv=qv)


# ---------------------------------------------------------------------------
# scenario families

def enumerate_family(
    b: AmbiguityBounds, richness: int, lyapunov: Expr | None = None
) -> list[VolatilityScenario]:
    """Deterministic scenario family of increasing coverage.

    richness >= 1.  The recipe: both constant band edges, `richness`
    equally spaced interior constants, alternating band-edge switching
    scenarios with 2..richness switches (at t = 5, 10, ...), and the
    curvature-feedback policy when an energy function is supplied.
    richness=1 therefore yields [lower edge, upper edge, midpoint].
    """
    if richness < 1:
        raise ValueError("richness must be >= 1")
    lo, hi = b.v_lower, b.v_upper
    fam: list[VolatilityScenario] = [Constant(lo), Constant(hi)]
    fam += [
        Constant(lo + j * (hi - lo) / (richness + 1)) for j in range(1, richness + 1)
    ]
    for k in range(2, richness + 1):
        times = tuple(5.0 * j for j in range(1, k + 1))
        levels = tuple(hi if j % 2 == 0 else lo for j in range(k))
        fam.append(BangBangInTime(times, levels))
    if lyapunov is not None:
        fam.append(FeedbackSignVxx(lyapunov))
    return fam


# ---------------------------------------------------------------------------
# textual forms

def parse_scenario(text: str, lyapunov: Expr | None = None) -> VolatilityScenario:
    """Parse a textual scenario form.

    Forms: ``constant:<v>``, ``bangbang_t:<level>@<time>,...``,
    ``bangbang_x:<x_star>,<v_below>,<v_above>``, ``feedback_vxx`` (needs a
    registered energy function), ``piecewise_random:dwell=<d>``.
    """
    text = text.strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    try:
        if kind == "constant":
            return Constant(float(rest))
        if kind == "bangbang_t":
            levels = []
            times = []
            for pair in rest.split(","):
                lv, sep, tm = pair.partition("@")
                if not sep:
                    raise ValueError(f"expected level@time, got {pair!r}")
                levels.append(float(lv))
                times.append(float(tm))
            return BangBangInTime(tuple(times), tuple(levels))
        if kind == "bangbang_x":
            x_star, below, above = (float(p) for p in rest.split(","))
            return BangBangInX(x_star, below, above)
        if kind == "feedback_vxx":
            if rest:
                raise ValueError("feedback_vxx takes no parameters")
            if lyapunov is None:
                raise ScenarioError(
                    "feedback_vxx requires a registered energy function"
                )
            return FeedbackSignVxx(lyapunov)
        if kind == "piecewise_random":
            key, _, val = rest.partition("=")
            if key.strip() != "dwell":
                raise ValueError(f"expected dwell=<value>, got {rest!r}")
            return PiecewiseRandom(float(val))
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"bad scenario text {text!r}: {exc}") from exc
    raise ScenarioError(f"unknown scenario kind {kind!r}")
