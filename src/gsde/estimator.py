"""Monte Carlo estimation over scenario families.

The empirical counterpart of the certificates.  Each entry point asks one
question of one family run, many paths of the same SDE under each
volatility scenario: the pathwise exponential rate and its family
supremum (estimate_exponent), the worst-case mean of a path functional,
an empirical sublinear expectation (estimate_sublinear_expectation), the
scenario with the largest mean rate, searched for beyond the family
(adversarial_search), and the exponential martingale inequality of the
pathwise arguments (martingale_bound_check, on a one-scenario family).
Every entry point runs the family it is given; none builds one.

A run has one prologue, _run_grid, which lists the family and checks the
seed, the path count and the run grid.  It has one engine call: the group
loop _scenario_rows steps at most 4000 lanes (one scenario at least) per
integrator._run_lanes call, so its step-major Wiener block (256 steps by
the call's lanes) stays within 8 MB, beside a 256 KB draw stage, unless a
single scenario has more than 4000 paths.  One rule, _worst, picks the
worst scenario, and the search's start phase and result.  Only a rate
divides by log|x0|, so only the exponent observer refuses x0 = 0.

All paths of all scenarios reuse the same per-path Wiener streams, so
scenario comparisons are common-random-number comparisons, enlarging the
family can only raise the estimated supremum, and a family run gives each
scenario exactly the numbers a run of that scenario alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import Expr, compile_fn
from .gcalc import AmbiguityBounds
from .integrator import SdeSpec, _run_lanes
from .scenario import (
    BangBangInTime,
    VolatilityScenario,
    check_streams,
    uniform_grid,
)

__all__ = [
    "EstimationError",
    "ScenarioExponent",
    "ExponentEstimate",
    "SublinearEstimate",
    "MartingaleCheckSpec",
    "MartingaleReport",
    "SearchResult",
    "FUNCTIONALS",
    "check_x0",
    "estimate_exponent",
    "estimate_sublinear_expectation",
    "adversarial_search",
    "martingale_bound_check",
]

# lanes per engine call, so one step-major Philox block holds at most
# 256 steps * 4000 lanes of doubles (8 MB); the draw stage adds 256 KB
_MAX_LANES = 4000
_LOG_FLOOR = 1e-300
# fraction of the horizon treated as the asymptotic tail
_TAIL_FRACTION = 0.8

# per-lane values of each simulated path functional, from the final state,
# the run's _FunctionalObserver and the power p
_FUNCTIONALS = {
    "terminal_abs_pow": lambda X, obs, p: np.abs(X) ** p,
    "running_max_abs": lambda X, obs, p: obs.runmax,
    "terminal_b": lambda X, obs, p: obs.B,
    "terminal_qv": lambda X, obs, p: obs.QV,
    "terminal_b_plus_qv": lambda X, obs, p: obs.B + obs.QV,
}
FUNCTIONALS = (*_FUNCTIONALS, "constant")

# the growth g(k) of the martingale bound, by name
_GROWTH = {"k": lambda k: k, "k^2": lambda k: k * k, "exp": np.exp}


class EstimationError(Exception):
    pass


def _centered_mean(vals: np.ndarray) -> float:
    """Exactly-rounded mean centered at the first value, so the mean of a
    constant array is that constant bit for bit."""
    if vals.size == 0:
        return float("nan")
    v0 = float(vals[0])
    return v0 + math.fsum(float(v) - v0 for v in vals) / vals.size


def _stderr(vals: np.ndarray) -> float:
    if vals.size < 2:
        return float("nan")
    return float(np.std(vals, ddof=1) / math.sqrt(vals.size))


# ---------------------------------------------------------------------------
# result records

@dataclass(frozen=True)
class ScenarioExponent:
    """Exponent statistics for one scenario.  mean/max/stderr are over the
    unflagged paths' tail-window rate maxima; slope is the fitted drift of
    the cross-path mean of log|X| over the tail window.  Flagged paths
    left the integration range (explosion or non-finite state)."""

    label: str
    mean: float
    max: float
    stderr: float
    slope: float
    n_paths: int
    n_flagged: int


@dataclass(frozen=True)
class ExponentEstimate:
    """Family of scenario estimates plus the two suprema.

    family_sup takes the worst single path over all scenarios (max of
    per-scenario maxima); family_sup_mean takes the worst scenario-average
    rate (max of per-scenario means) and is the quantity certificates
    bound; argmax_label is the first scenario with that mean.  Scenarios
    whose every path was flagged carry NaN statistics and do not enter
    either supremum.
    """

    scenarios: tuple[ScenarioExponent, ...]
    family_sup: float
    family_sup_mean: float
    argmax_label: str
    n_paths: int
    horizon: float
    dt: float


@dataclass(frozen=True)
class SublinearEstimate:
    """Empirical worst-case expectation: max over scenarios of the
    per-scenario Monte Carlo mean of one path functional."""

    value: float
    argmax_label: str
    functional: str
    labels: tuple[str, ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    n_flagged: tuple[int, ...]
    n_paths: int


@dataclass(frozen=True)
class MartingaleCheckSpec:
    """Parameters of the exponential martingale bound check.

    The accumulated noise integral N(t) = sum eta(X, t) dB and its
    quadratic variation Q(t) = sum eta^2 v dtau must satisfy

        N(t) <= (gamma_k / 2) Q(t) + (theta / gamma_k) log g(k)

    for all t <= tau_k, for every k from some path-dependent k0 on.  The
    checkpoints tau_k, like t, are times elapsed since the SDE's t0.
    Defaults: tau_k = k, gamma_k = 1, g(k) = k, theta = 2.
    """

    eta: Expr
    k_max: int = 50
    theta: float = 2.0
    gamma: tuple[float, ...] | None = None
    tau: tuple[float, ...] | None = None
    growth: str = "k"

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not self.theta > 1:
            raise ValueError("theta must exceed 1")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.gamma is not None:
            if len(self.gamma) != self.k_max or any(g <= 0 for g in self.gamma):
                raise ValueError("gamma needs k_max positive entries")
            if not all(math.isfinite(g) for g in self.gamma):
                raise ValueError("gamma entries must be finite")
        if self.tau is not None:
            if len(self.tau) != self.k_max:
                raise ValueError("tau needs k_max entries")
            if self.tau[0] <= 0 or any(
                b <= a for a, b in zip(self.tau, self.tau[1:])
            ):
                raise ValueError("tau must be positive and strictly increasing")
            if not all(math.isfinite(t) for t in self.tau):
                raise ValueError("tau entries must be finite")
        if self.growth not in _GROWTH:
            raise ValueError(f"growth must be one of {', '.join(_GROWTH)}")

    def gammas(self) -> np.ndarray:
        if self.gamma is None:
            return np.ones(self.k_max)
        return np.asarray(self.gamma, dtype=float)

    def taus(self) -> np.ndarray:
        if self.tau is None:
            return np.arange(1, self.k_max + 1, dtype=float)
        return np.asarray(self.tau, dtype=float)

    def growth_values(self) -> np.ndarray:
        return _GROWTH[self.growth](np.arange(1, self.k_max + 1, dtype=float))


@dataclass(frozen=True)
class MartingaleReport:
    """Outcome of the bound check over a path batch.

    k0 holds each path's smallest index from which the bound holds through
    k_max (-1 when even k_max fails); fraction_satisfied is the share of
    unflagged paths with a valid k0.  violation_fraction[k-1] is the share
    of unflagged paths violating the bound at index k; the union-bound
    prediction for it is g(k)^(-theta).
    """

    fraction_satisfied: float
    k0: np.ndarray
    violation_fraction: np.ndarray
    bounds: np.ndarray
    n_paths: int
    n_flagged: int
    scenario_label: str


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an adversarial scenario search."""

    scenario: VolatilityScenario
    exponent: float
    evaluations: int
    baseline_complete: bool
    family_size: int


# ---------------------------------------------------------------------------
# lane observers and the family runner

class _ExponentObserver:
    """Per-lane running max of (log|X(t)| - log|x0|) / (t - t0) over the
    tail window, plus per-scenario least-squares accumulators for the
    drift of the cross-path mean of log|X|."""

    def __init__(self, x0, t0, horizon, n_scenarios, n_paths):
        check_x0(x0)
        self.t0 = t0
        self.window_start = t0 + _TAIL_FRACTION * horizon
        self.log_x0 = math.log(abs(x0))
        self.k = n_scenarios
        self.acc = np.full(n_scenarios * n_paths, -np.inf)
        self.n = np.zeros(n_scenarios, dtype=np.int64)
        self.st = np.zeros(n_scenarios)
        self.stt = np.zeros(n_scenarios)
        self.sy = np.zeros(n_scenarios)
        self.sty = np.zeros(n_scenarios)

    def pre_step(self, i, t, X, v, dW, dB, dtau, alive):
        pass

    def post_step(self, i, t_next, X, alive):
        if t_next < self.window_start:
            return
        elapsed = t_next - self.t0
        logs = np.log(np.maximum(np.abs(X), _LOG_FLOOR)) - self.log_x0
        np.maximum(self.acc, logs / elapsed, out=self.acc, where=alive)
        rows = logs.reshape(self.k, -1)
        if alive is True:
            live = slice(None)
            y = rows.mean(axis=1)
        else:
            ok = alive.reshape(self.k, -1)
            live = ok.any(axis=1)
            y = np.array([np.mean(r[m]) for r, m in zip(rows, ok) if m.any()])
        self.n[live] += 1
        self.st[live] += elapsed
        self.stt[live] += elapsed * elapsed
        self.sy[live] += y
        self.sty[live] += elapsed * y

    def slope(self, q: int) -> float:
        """Least-squares slope of scenario q's mean log|X| over the window."""
        n, st, stt, sy, sty = (
            a[q].item() for a in (self.n, self.st, self.stt, self.sy, self.sty)
        )
        denom = n * stt - st * st
        if n < 2 or denom == 0:
            return float("nan")
        return (n * sty - st * sy) / denom


class _FunctionalObserver:
    """Running max of |X|, accumulated driver B = sum dB, and accumulated
    quadratic variation QV = sum v dtau, all frozen once a path is flagged."""

    def __init__(self, x0: float, lanes: int):
        self.runmax = np.full(lanes, abs(x0))
        self.B = np.zeros(lanes)
        self.QV = np.zeros(lanes)

    def pre_step(self, i, t, X, v, dW, dB, dtau, alive):
        np.add(self.B, dB, out=self.B, where=alive)
        np.add(self.QV, v * dtau, out=self.QV, where=alive)

    def post_step(self, i, t_next, X, alive):
        np.maximum(self.runmax, np.abs(X), out=self.runmax, where=alive)


class _MartingaleObserver:
    """Tracks N = sum eta dB, Q = sum eta^2 v dtau, the running max of
    N - (gamma/2) Q per distinct gamma, and snapshots those maxima at the
    checkpoint times."""

    def __init__(self, eta_fn, gammas, snap_steps, lanes):
        self.eta_fn = eta_fn
        self.N = np.zeros(lanes)
        self.Q = np.zeros(lanes)
        self.distinct = sorted(set(float(g) for g in gammas))
        self.runmax = {g: np.zeros(lanes) for g in self.distinct}
        self.gammas = np.asarray(gammas, dtype=float)
        # snap_steps[j] = step index after which checkpoint j is reached
        self.snap_steps = snap_steps
        self.M = np.full((len(gammas), lanes), np.nan)

    def pre_step(self, i, t, X, v, dW, dB, dtau, alive):
        eta = self.eta_fn(X, t)
        # KERNEL_MODE raises on invalid for the kernels only: an overflowing
        # eta is no domain error, and its inf * 0 and inf - inf sums stay nan
        with np.errstate(invalid="ignore"):
            np.add(self.N, eta * dB, out=self.N, where=alive)
            np.add(self.Q, eta * eta * v * dtau, out=self.Q, where=alive)
            for g in self.distinct:
                stat = self.N - 0.5 * g * self.Q
                np.maximum(self.runmax[g], stat, out=self.runmax[g], where=alive)

    def post_step(self, i, t_next, X, alive):
        for j in np.nonzero(self.snap_steps == i)[0]:
            self.M[j] = self.runmax[float(self.gammas[j])]


def _scenario_rows(
    spec, scenarios, b, grid, seed, n_paths, method, observer, values
):
    """Run a family through the lane engine, at most _MAX_LANES lanes and
    at least one scenario per call, and yield per scenario in order its
    unflagged values, its flag row, its group's observer and its index
    there.  observer(k) builds a k-scenario group's observer; values(X,
    obs) gives one value per lane from the final state and that observer."""
    size = max(1, _MAX_LANES // n_paths)
    for start in range(0, len(scenarios), size):
        group = scenarios[start:start + size]
        obs = observer(len(group))
        X, flagged = _run_lanes(spec, group, b, grid, seed, n_paths, method, obs)
        rows = values(X, obs).reshape(len(group), n_paths)
        flags = flagged.reshape(len(group), n_paths)
        for q, (row, flagged) in enumerate(zip(rows, flags)):
            yield row[~flagged], flagged, obs, q


def check_x0(x0: float) -> None:
    """Refuse a start at 0, which no rate can be normalized by."""
    if x0 == 0:
        raise ValueError("x0 must be nonzero (rates normalize by |x0|)")


def _run_grid(spec, scenarios, horizon, dt, n_paths, seed):
    """The family as a list, refused when empty, and the run's uniform_grid
    (or its ScenarioError), once the seed and n_paths pass."""
    scenarios = list(scenarios)
    if not scenarios:
        raise EstimationError("need at least one scenario")
    check_streams(seed, n_paths)
    return scenarios, uniform_grid(spec.t0, horizon, dt)


def _worst(values, refusal: str) -> tuple[float, int]:
    """The largest non-nan value and the first index that has it; values
    without one are refused with `refusal`."""
    value = max((v for v in values if not math.isnan(v)), default=math.nan)
    if math.isnan(value):
        raise EstimationError(refusal)
    return value, values.index(value)


# ---------------------------------------------------------------------------
# exponent estimation

def _scenario_exponents(
    spec, scenarios, b, grid, seed, n_paths, method, horizon
) -> list[ScenarioExponent]:
    """Exponent statistics of each scenario; a scenario whose every path
    was flagged gets nan statistics."""
    rows = _scenario_rows(
        spec, scenarios, b, grid, seed, n_paths, method,
        lambda k: _ExponentObserver(spec.x0, spec.t0, horizon, k, n_paths),
        lambda X, obs: obs.acc,
    )
    return [
        ScenarioExponent(
            label=s.label(),
            mean=_centered_mean(vals),
            max=float(np.max(vals)) if vals.size else float("nan"),
            stderr=_stderr(vals),
            slope=obs.slope(q) if vals.size else float("nan"),
            n_paths=n_paths,
            n_flagged=int(flagged.sum()),
        )
        for s, (vals, flagged, obs, q) in zip(scenarios, rows)
    ]


def estimate_exponent(
    spec: SdeSpec,
    scenarios,
    b: AmbiguityBounds,
    horizon: float,
    dt: float,
    n_paths: int,
    seed: int,
    method: str = "euler",
) -> ExponentEstimate:
    """Estimate the pathwise exponential rate per scenario and the family
    suprema.

    Each path's rate is the max over the tail window (the last fifth of
    the horizon) of (1/(t - t0)) log|X(t)/x0|.  Scenarios where every path
    was flagged are reported with NaN statistics; if that happens for the
    whole family the estimate is refused.
    """
    scenarios, grid = _run_grid(spec, scenarios, horizon, dt, n_paths, seed)
    per = _scenario_exponents(
        spec, scenarios, b, grid, seed, n_paths, method, horizon
    )
    sup_mean, k = _worst(
        [s.mean for s in per],
        "every path of every scenario was flagged; no rate estimate",
    )
    return ExponentEstimate(
        scenarios=tuple(per),
        family_sup=max(s.max for s in per if not math.isnan(s.max)),
        family_sup_mean=sup_mean,
        argmax_label=per[k].label,
        n_paths=n_paths,
        horizon=horizon,
        dt=dt,
    )


# ---------------------------------------------------------------------------
# sublinear expectation of path functionals

def estimate_sublinear_expectation(
    functional: str,
    spec: SdeSpec,
    scenarios,
    b: AmbiguityBounds,
    horizon: float,
    dt: float,
    n_paths: int,
    seed: int,
    p: float = 1.0,
    constant_value: float = 1.0,
    method: str = "euler",
) -> SublinearEstimate:
    """Worst-case expectation of a path functional over the scenario set:
    the max over scenarios of the per-scenario sample mean.

    Functionals: terminal_abs_pow (|X_T|^p), running_max_abs (max |X|),
    terminal_b (B_T), terminal_qv (accumulated quadratic variation),
    terminal_b_plus_qv, constant (no simulation; exact by construction).
    Means use exactly-rounded centered summation, so constants pass
    through bit for bit and common-random-number comparisons are exact.
    """
    if functional not in FUNCTIONALS:
        raise EstimationError(f"unknown functional {functional!r}")
    scenarios, grid = _run_grid(spec, scenarios, horizon, dt, n_paths, seed)
    labels = tuple(s.label() for s in scenarios)
    if functional == "constant":
        c, k = float(constant_value), len(scenarios)
        if math.isnan(c):
            raise ValueError("constant_value must not be nan")
        means, stderrs, n_flagged = (c,) * k, (0.0,) * k, (0,) * k
    else:
        of_path = _FUNCTIONALS[functional]
        means, stderrs, n_flagged = zip(*(
            (_centered_mean(vals), _stderr(vals), int(flagged.sum()))
            for vals, flagged, _, _ in _scenario_rows(
                spec, scenarios, b, grid, seed, n_paths, method,
                lambda k: _FunctionalObserver(spec.x0, k * n_paths),
                lambda X, obs: of_path(X, obs, p),
            )
        ))
    value, k = _worst(means, "every scenario was fully flagged")
    return SublinearEstimate(
        value=value,
        argmax_label=labels[k],
        functional=functional,
        labels=labels,
        means=means,
        stderrs=stderrs,
        n_flagged=n_flagged,
        n_paths=n_paths,
    )


# ---------------------------------------------------------------------------
# adversarial scenario search

def _objectives(cands, spec, b, grid, seed, n_paths, method, horizon):
    """The search's objective of each candidate: +inf when any of its paths
    was flagged (an escape to the integration boundary is the worst
    outcome for stability), otherwise its mean rate."""
    return [math.inf if s.n_flagged else s.mean for s in _scenario_exponents(
        spec, cands, b, grid, seed, n_paths, method, horizon)]


def adversarial_search(
    spec: SdeSpec,
    scenarios,
    b: AmbiguityBounds,
    budget: int,
    horizon: float,
    dt: float,
    n_paths: int,
    seed: int,
    max_switches: int = 3,
    method: str = "euler",
) -> SearchResult:
    """Search for the scenario with the largest mean pathwise rate.

    Phase one evaluates the family `scenarios`, up to its first `budget`
    members.  Once the whole family is evaluated, phase two spends the rest
    of the budget on the alternating band-edge schedule with max_switches
    switch times in the run's window [t0, t0 + horizon]: equally spaced,
    from the upper edge and then the lower, the better start kept, and
    then coordinate descent on the times.  Every evaluation reuses the
    same Wiener streams, so objective comparisons are noise-free.  The
    result is the first candidate with the highest objective, picked by
    _worst, so it never falls below the best family member evaluated.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not (1 <= max_switches <= 4):
        raise ValueError("max_switches must be in 1..4")
    family, grid = _run_grid(spec, scenarios, horizon, dt, n_paths, seed)
    run = (spec, b, grid, seed, n_paths, method, horizon)
    refusal = "every candidate scored nan"
    cands = family[:budget]
    vals = _objectives(cands, *run)
    baseline_complete = len(cands) == len(family)
    if baseline_complete and len(cands) < budget:
        m, t0 = max_switches, spec.t0
        times = [t0 + horizon * (j + 1) / (m + 1) for j in range(m)]
        starts = (True, False)[:budget - len(cands)]
        cands += [BangBangInTime.band_edges(b, times, h) for h in starts]
        vals += _objectives(cands[len(family):], *run)
        current, k = _worst(vals[len(family):], refusal)
        high_first = starts[k]
        # a pass moves each switch in turn to the quarter points of the gap
        # between its neighbours and keeps each move that raises the
        # objective; passes repeat until one moves nothing
        moves = [(j, frac) for j in range(m) for frac in (0.25, 0.5, 0.75)]
        moved = True
        while moved and len(cands) < budget:
            moved = False
            for j, frac in moves:
                if len(cands) >= budget:
                    break
                left = times[j - 1] if j > 0 else t0
                right = times[j + 1] if j + 1 < m else t0 + horizon
                t_new = left + frac * (right - left)
                if abs(t_new - times[j]) < dt or t_new <= left:
                    continue
                trial = sorted([*times[:j], t_new, *times[j + 1:]])
                cands.append(BangBangInTime.band_edges(b, trial, high_first))
                vals += _objectives(cands[-1:], *run)
                if vals[-1] > current:
                    times, current, moved = trial, vals[-1], True
    exponent, k = _worst(vals, refusal)
    return SearchResult(
        scenario=cands[k],
        exponent=exponent,
        evaluations=len(cands),
        baseline_complete=baseline_complete,
        family_size=len(family),
    )


# ---------------------------------------------------------------------------
# martingale bound check

def martingale_bound_check(
    mspec: MartingaleCheckSpec,
    spec: SdeSpec,
    scenario: VolatilityScenario,
    b: AmbiguityBounds,
    n_paths: int,
    seed: int,
    dt: float = 1e-3,
    method: str = "euler",
) -> MartingaleReport:
    """Check the exponential martingale bound along simulated paths.

    Integrates the SDE to t0 + tau_(k_max), accumulates N and its quadratic
    variation, and snapshots the running max of N - (gamma_k/2) Q at each
    checkpoint tau_k.  k0 per path is the first index from which the bound
    holds through k_max.
    """
    taus = mspec.taus()
    gammas = mspec.gammas()
    horizon = float(taus[-1])
    scenarios, grid = _run_grid(spec, [scenario], horizon, dt, n_paths, seed)
    dt_actual = horizon / (grid.size - 1)
    # checkpoint j lands after the step ending nearest t0 + tau_j
    snap_steps = np.clip(
        np.rint(taus / dt_actual).astype(np.int64) - 1,
        0,
        grid.size - 2,
    )
    eta_fn = compile_fn(mspec.eta)
    [(_, flagged, obs, _)] = _scenario_rows(
        spec, scenarios, b, grid, seed, n_paths, method,
        lambda k: _MartingaleObserver(eta_fn, gammas, snap_steps, k * n_paths),
        lambda X, obs: X,
    )

    bounds = (mspec.theta / gammas) * np.log(mspec.growth_values())
    ok = obs.M <= bounds[:, None]
    ok_suffix = np.flip(np.logical_and.accumulate(np.flip(ok, 0), 0), 0)
    k0 = np.where(
        ok_suffix.any(axis=0), ok_suffix.argmax(axis=0) + 1, -1
    ).astype(np.int64)
    unflagged = ~flagged
    if not unflagged.any():
        raise EstimationError("every path was flagged; no martingale check")
    fraction = float(np.mean(k0[unflagged] != -1))
    violation = np.mean(~ok[:, unflagged], axis=1)
    return MartingaleReport(
        fraction_satisfied=fraction,
        k0=k0,
        violation_fraction=violation,
        bounds=bounds,
        n_paths=n_paths,
        n_flagged=int(flagged.sum()),
        scenario_label=scenario.label(),
    )
