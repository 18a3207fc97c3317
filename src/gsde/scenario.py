"""Volatility scenarios and their variance streams.

A scenario is an adapted volatility policy: a rule that fixes the variance
rate v_i of each time step from information available at the step start
(clock time, current state).  Every emitted rate is clamped into the
ambiguity band, so the quadratic variation v_i dtau_i of each step sits
between the band edges times the step.

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
from typing import Callable

import numpy as np

from .csvio import fmt
from .expr import Expr, compile_fn, differentiate
from .gcalc import AmbiguityBounds

__all__ = [
    "VolatilityScenario",
    "Constant",
    "BangBangInTime",
    "BangBangInX",
    "FeedbackSignVxx",
    "PiecewiseRandom",
    "ScenarioError",
    "enumerate_family",
    "KINDS",
    "parse_scenario",
    "SEED_LIMIT",
    "check_run",
    "uniform_grid",
    "stream_generator",
    "standard_increments",
    "variance_stream",
]

WIENER_STREAM = 0
LEVEL_STREAM = 1


class ScenarioError(ValueError):
    pass


# Philox keys hold the seed in one 64-bit word, and the stream id (top 8
# bits) and the path index (low 56 bits) in the other
SEED_LIMIT = 1 << 64
PATH_LIMIT = 1 << 56

# the most steps, or piecewise_random levels, a run may have: far more than
# memory holds, and below numpy's limit on the size of one array
MAX_STEPS = 1 << 53


def check_streams(seed: int = 0, n_paths: int = 1) -> None:
    """Refuse a seed or a path count that the Philox keys cannot hold: the
    seed must lie in [0, SEED_LIMIT) and n_paths in [1, PATH_LIMIT]."""
    if not 0 <= seed < SEED_LIMIT:
        raise ScenarioError("seed must lie in [0, 2^64)")
    if n_paths < 1:
        raise ScenarioError("n_paths must be >= 1")
    if n_paths > PATH_LIMIT:
        raise ScenarioError("n_paths must be <= 2^56")


def stream_generator(seed: int, stream: int, path_index: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream id, path index), refused
    unless check_streams passes for path_index + 1 paths."""
    check_streams(seed, path_index + 1)
    key = np.array(
        [seed, ((stream & 0xFF) << 56) | path_index],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def standard_increments(seed: int, path_index: int, n: int) -> np.ndarray:
    """The first n standard-normal draws of path path_index's Wiener stream."""
    return stream_generator(seed, WIENER_STREAM, path_index).standard_normal(n)


def check_run(horizon: float, dt: float) -> None:
    """Refuse a run that no uniform grid can hold: horizon and dt must be
    positive and finite, dt must not exceed horizon, and the run must have
    fewer than MAX_STEPS steps."""
    if not (0 < dt < math.inf and 0 < horizon < math.inf):
        raise ScenarioError("dt and horizon must be positive and finite")
    if dt > horizon:
        raise ScenarioError("dt must not exceed horizon")
    if not horizon / dt < MAX_STEPS:
        raise ScenarioError("horizon / dt: too many steps")


def check_levels(scenarios, horizon: float) -> None:
    """Refuse a PiecewiseRandom scenario with MAX_STEPS or more levels
    over the horizon."""
    for s in scenarios:
        if isinstance(s, PiecewiseRandom) and not horizon / s.dwell < MAX_STEPS:
            raise ScenarioError(f"{s.label()}: dwell too small for horizon")


def uniform_grid(t0: float, horizon: float, dt: float) -> np.ndarray:
    """Uniform time grid over [t0, t0 + horizon] with step ~dt; refused
    unless check_run passes and the grid is finite and strictly increasing."""
    check_run(horizon, dt)
    if not math.isfinite(t0 + horizon):
        raise ScenarioError("grid must be finite and strictly increasing")
    return _check_grid(np.linspace(t0, t0 + horizon, round(horizon / dt) + 1))


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ScenarioError("grid must be one-dimensional with at least 2 points")
    if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise ScenarioError("grid must be finite and strictly increasing")
    return grid


# ---------------------------------------------------------------------------
# scenario kinds

@dataclass(frozen=True)
class VolatilityScenario:
    """Base scenario type.  A kind is one class, listed in KINDS under the
    prefix of its label(); its classmethod parse(rest, lyapunov) builds it
    from the text after that prefix, and its stream(b, grid, seed, paths)
    is the kind's variance stream (see variance_stream)."""

    def label(self) -> str:
        raise NotImplementedError


def _reject_nan(*params: float) -> None:
    """A nan rate or switch point would pass the band clamp (np.clip keeps
    nan); inf is fine, it clamps to a band edge."""
    for p in params:
        if math.isnan(p):
            raise ValueError("scenario parameters must not be nan")


@dataclass(frozen=True)
class Constant(VolatilityScenario):
    """Fixed variance rate (clamped into the band at emission)."""

    v: float

    def __post_init__(self):
        _reject_nan(self.v)

    def label(self) -> str:
        return f"constant:{fmt(self.v)}"

    @classmethod
    def parse(cls, rest, lyapunov):
        return cls(float(rest))

    def stream(self, b, grid, seed, paths):
        v = float(b.clamp(self.v))
        return lambda i, t, x: v


@dataclass(frozen=True)
class BangBangInTime(VolatilityScenario):
    """Piecewise-constant-in-time rates: levels[j] applies for t < times[j];
    after the last switch time the last level holds."""

    times: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.levels) or not self.times:
            raise ValueError("need matching nonempty times and levels")
        _reject_nan(*self.times, *self.levels)
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

    @classmethod
    def parse(cls, rest, lyapunov):
        levels = []
        times = []
        for pair in rest.split(","):
            lv, sep, tm = pair.partition("@")
            if not sep:
                raise ValueError(f"expected level@time, got {pair!r}")
            levels.append(float(lv))
            times.append(float(tm))
        return cls(tuple(times), tuple(levels))

    @classmethod
    def band_edges(cls, b, times, high_first=True):
        """The schedule that alternates between b's edges, switching at
        times, from the upper edge when high_first and else the lower."""
        edges = (b.v_upper, b.v_lower) if high_first else (b.v_lower, b.v_upper)
        return cls(tuple(times), tuple(edges[j % 2] for j in range(len(times))))

    def stream(self, b, grid, seed, paths):
        per_step = b.clamp(self.value_at(np.asarray(grid[:-1], dtype=float)))
        return lambda i, t, x: per_step[i]


@dataclass(frozen=True)
class BangBangInX(VolatilityScenario):
    """State-feedback switch: v_below where x < x_star, else v_above."""

    x_star: float
    v_below: float
    v_above: float

    def __post_init__(self):
        _reject_nan(self.x_star, self.v_below, self.v_above)

    def label(self) -> str:
        return (
            f"bangbang_x:{fmt(self.x_star)},{fmt(self.v_below)},{fmt(self.v_above)}"
        )

    @classmethod
    def parse(cls, rest, lyapunov):
        x_star, below, above = (float(p) for p in rest.split(","))
        return cls(x_star, below, above)

    def stream(self, b, grid, seed, paths):
        below = float(b.clamp(self.v_below))
        above = float(b.clamp(self.v_above))
        x_star = self.x_star
        return lambda i, t, x: np.where(x < x_star, below, above)


@dataclass(frozen=True)
class FeedbackSignVxx(VolatilityScenario):
    """Curvature feedback for an energy function V: picks the upper band
    edge where V_xx(x, t) > 0 and the lower edge elsewhere (the rate that
    maximizes the second-order contribution to V along the path)."""

    V: Expr

    def label(self) -> str:
        return "feedback_vxx"

    def vxx(self) -> Expr:
        return differentiate(differentiate(self.V, "x"), "x")

    @classmethod
    def parse(cls, rest, lyapunov):
        if rest:
            raise ValueError("feedback_vxx takes no parameters")
        if lyapunov is None:
            raise ScenarioError("feedback_vxx requires a registered energy function")
        return cls(lyapunov)

    def stream(self, b, grid, seed, paths):
        lo, hi = b.v_lower, b.v_upper
        vxx_fn = compile_fn(self.vxx())
        return lambda i, t, x: np.where(vxx_fn(x, t) > 0, hi, lo)


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

    @classmethod
    def parse(cls, rest, lyapunov):
        key, _, val = rest.partition("=")
        if key.strip() != "dwell":
            raise ValueError(f"expected dwell=<value>, got {rest!r}")
        return cls(float(val))

    def stream(self, b, grid, seed, paths):
        lo, hi = b.v_lower, b.v_upper
        t0 = float(grid[0])
        check_levels([self], float(grid[-1]) - t0)
        n_levels = int(math.floor((float(grid[-1]) - t0) / self.dwell)) + 1
        step_idx = np.minimum(
            ((np.asarray(grid[:-1]) - t0) / self.dwell).astype(np.int64), n_levels - 1
        )
        # step-major: levels[j] holds level j of every path, in the shape
        # of paths (one float for a single path, one row for many)
        idx = np.asarray(paths)
        levels = np.empty((n_levels,) + idx.shape)
        for k, p in np.ndenumerate(idx):
            gen = stream_generator(seed, LEVEL_STREAM, int(p))
            levels[(slice(None),) + k] = b.clamp(gen.uniform(lo, hi, n_levels))
        if idx.ndim == 0:
            # one path: a per-step list hands the scalar loop Python
            # floats; for many paths it would hold steps x paths floats
            per_step = levels[step_idx].tolist()
            return lambda i, t, x: per_step[i]
        return lambda i, t, x: levels[step_idx[i]]


KINDS = {
    "constant": Constant,
    "bangbang_t": BangBangInTime,
    "bangbang_x": BangBangInX,
    "feedback_vxx": FeedbackSignVxx,
    "piecewise_random": PiecewiseRandom,
}


# ---------------------------------------------------------------------------
# variance streams

def variance_stream(s: VolatilityScenario, b: AmbiguityBounds,
                    grid: np.ndarray, seed: int, paths) -> Callable:
    """Build fn(i, t, x) -> variance rate(s) for step i starting at time t
    with pre-step state x.

    `paths` is a single path index or an array of indices; x matches its
    shape.  Deterministic kinds precompute per-step values; feedback kinds
    close over compiled state rules; PiecewiseRandom pre-draws each path's
    level sequence from its level stream.
    """
    # kept a module function: perfbench's tracer wraps the functions in each
    # module's __all__, and its scenario.variance_calls count comes from
    # that wrapper
    return s.stream(b, grid, seed, paths)


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
    richness=1 therefore yields [lower edge, upper edge, midpoint].  A
    label is listed once, at its first place: on a degenerate band the
    constants coincide.
    """
    if richness < 1:
        raise ValueError("richness must be >= 1")
    lo, hi = b.v_lower, b.v_upper
    fam: list[VolatilityScenario] = [Constant(lo), Constant(hi)]
    fam += [
        Constant(lo + j * (hi - lo) / (richness + 1)) for j in range(1, richness + 1)
    ]
    fam += [BangBangInTime.band_edges(b, [5.0 * j for j in range(1, k + 1)])
            for k in range(2, richness + 1)]
    if lyapunov is not None:
        fam.append(FeedbackSignVxx(lyapunov))
    unique: dict[str, VolatilityScenario] = {}
    for s in fam:
        unique.setdefault(s.label(), s)
    return list(unique.values())


# ---------------------------------------------------------------------------
# textual forms

def parse_scenario(text: str, lyapunov: Expr | None = None) -> VolatilityScenario:
    """Parse a textual scenario form `<kind>:<rest>`: the class KINDS lists
    under kind parses rest.

    Forms: ``constant:<v>``, ``bangbang_t:<level>@<time>,...``,
    ``bangbang_x:<x_star>,<v_below>,<v_above>``, ``feedback_vxx`` (needs a
    registered energy function), ``piecewise_random:dwell=<d>``.
    """
    text = text.strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in KINDS:
        raise ScenarioError(f"unknown scenario kind {kind!r}")
    try:
        return KINDS[kind].parse(rest, lyapunov)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"bad scenario text {text!r}: {exc}") from exc
