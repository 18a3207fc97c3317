"""Monte Carlo estimation over scenario families.

The empirical counterpart of the certificates: simulate many paths of the
same SDE under each volatility scenario in a family, estimate the pathwise
exponential rate per scenario, and report the family supremum.  The same
engine estimates worst-case expectations of path functionals (the
empirical sublinear expectation: a max of per-scenario means) and checks
the exponential martingale inequality used by the pathwise arguments.

All paths of all scenarios reuse the same per-path Wiener streams, so
scenario comparisons are common-random-number comparisons and enlarging
the family can only raise the estimated supremum.

One lane engine, _run_lanes, serves every entry point: it advances all
(scenario, path) pairs of a call as one scenario-major array of lanes,
so a family of k scenarios on n paths steps k*n lanes at once.  A call
holds at most 4000 lanes (larger families run in scenario groups, one
scenario at least per group), and Wiener normals come in lane-major
Philox blocks of 256 steps, so a block stays within 8 MB unless a single
scenario has more than 4000 paths.  While no lane is flagged a step
checks for explosions with a single max of |X|, and masks appear only
after the first flag.  A family run gives each scenario exactly the
numbers a run of that scenario alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import Expr, check_domain, compile_fn, differentiate, free_variables
from .gcalc import AmbiguityBounds
from .integrator import EXPLOSION_THRESHOLD, METHODS, SdeSpec
from .scenario import (
    BangBangInTime,
    VolatilityScenario,
    WIENER_STREAM,
    enumerate_family,
    stream_generator,
    uniform_grid,
    variance_stream,
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
    "estimate_exponent",
    "estimate_sublinear_expectation",
    "adversarial_search",
    "martingale_bound_check",
]

# steps per Philox block: long enough that a standard_normal call's fixed
# cost is small against its draws
_BLOCK_STEPS = 256
# lanes per engine call, so one block holds at most 256 * 4000 doubles
_MAX_LANES = 4000
_LOG_FLOOR = 1e-300
# fraction of the horizon treated as the asymptotic tail
_TAIL_FRACTION = 0.8

FUNCTIONALS = (
    "terminal_abs_pow",
    "running_max_abs",
    "terminal_b",
    "terminal_qv",
    "terminal_b_plus_qv",
    "constant",
)


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
    bound.  Scenarios whose every path was flagged carry NaN statistics
    and do not enter either supremum.
    """

    scenarios: tuple[ScenarioExponent, ...]
    family_sup: float
    family_sup_mean: float
    n_paths: int
    horizon: float
    dt: float

    @property
    def argmax_label(self) -> str:
        best = max(
            (s for s in self.scenarios if not math.isnan(s.mean)),
            key=lambda s: s.mean,
        )
        return best.label


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

    for all t <= tau_k, for every k from some path-dependent k0 on.
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
        if not free_variables(self.eta) <= {"x", "t"}:
            raise ValueError("eta must be an expression in x and t")
        if self.gamma is not None:
            if len(self.gamma) != self.k_max or any(g <= 0 for g in self.gamma):
                raise ValueError("gamma needs k_max positive entries")
        if self.tau is not None:
            if len(self.tau) != self.k_max:
                raise ValueError("tau needs k_max entries")
            if self.tau[0] <= 0 or any(
                b <= a for a, b in zip(self.tau, self.tau[1:])
            ):
                raise ValueError("tau must be positive and strictly increasing")
        if self.growth not in ("k", "k^2", "exp"):
            raise ValueError("growth must be one of k, k^2, exp")

    def gammas(self) -> np.ndarray:
        if self.gamma is None:
            return np.ones(self.k_max)
        return np.asarray(self.gamma, dtype=float)

    def taus(self) -> np.ndarray:
        if self.tau is None:
            return np.arange(1, self.k_max + 1, dtype=float)
        return np.asarray(self.tau, dtype=float)

    def growth_values(self) -> np.ndarray:
        k = np.arange(1, self.k_max + 1, dtype=float)
        if self.growth == "k":
            return k
        if self.growth == "k^2":
            return k * k
        return np.exp(k)


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
# lane engine

class _ExponentObserver:
    """Per-lane running max of (log|X(t)| - log|x0|) / (t - t0) over the
    tail window, plus per-scenario least-squares accumulators for the
    drift of the cross-path mean of log|X|."""

    def __init__(self, x0, t0, horizon, n_scenarios, n_paths):
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

    def slopes(self) -> list[float]:
        out = []
        for n, st, stt, sy, sty in zip(
            self.n.tolist(), self.st.tolist(), self.stt.tolist(),
            self.sy.tolist(), self.sty.tolist(),
        ):
            denom = n * stt - st * st
            if n < 2 or denom == 0:
                out.append(float("nan"))
            else:
                out.append((n * sty - st * sy) / denom)
        return out


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
        np.add(self.N, eta * dB, out=self.N, where=alive)
        np.add(self.Q, eta * eta * v * dtau, out=self.Q, where=alive)
        for g in self.distinct:
            stat = self.N - 0.5 * g * self.Q
            np.maximum(self.runmax[g], stat, out=self.runmax[g], where=alive)

    def post_step(self, i, t_next, X, alive):
        for j in np.nonzero(self.snap_steps == i)[0]:
            self.M[j] = self.runmax[float(self.gammas[j])]


@dataclass
class _LaneResult:
    """Final state and flags of every lane, scenario-major."""

    X: np.ndarray
    flagged: np.ndarray
    n_scenarios: int

    def per_scenario(self, values: np.ndarray) -> np.ndarray:
        """Reshape a lane vector to (scenario, path) rows."""
        return values.reshape(self.n_scenarios, -1)

    def n_flagged(self) -> list[int]:
        return self.per_scenario(self.flagged).sum(axis=1).tolist()


def _run_lanes(
    spec: SdeSpec,
    scenarios,
    b: AmbiguityBounds,
    grid: np.ndarray,
    seed: int,
    n_paths: int,
    method: str,
    observers,
) -> _LaneResult:
    """Advance n_paths paths under every scenario together, one vectorized
    step over all (scenario, path) lanes at a time.

    Lanes are scenario-major: scenario q owns lanes q*n_paths to
    (q+1)*n_paths - 1, and its variance policy is called once per step on
    that slice of X.  Lane (q, p) draws path p's Wiener stream from its own
    Philox generator, as integrate does, so a family run equals its
    scenarios run one by one, bit for bit.  Normals come in lane-major
    blocks of _BLOCK_STEPS steps; step j of a block reads column j.

    alive is True until the first flag and ~flagged after it; observers
    pass it as `where=` to their updates.  While it is True the only
    explosion check is one max of |X|.  A lane whose state leaves
    [-threshold, threshold] or turns non-finite is flagged and frozen at
    NaN.  A non-finite lane is first re-evaluated at its pre-step state
    with the checked evaluator, so a domain violation raises
    EvalDomainError naming the node; overflow, in the step or inside f or
    g, only flags the lane.  The re-check runs lane by lane, since one
    lane's overflow must not hide another's domain violation; a lane is
    re-checked at most once, as it is flagged afterwards.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    k = len(scenarios)
    lanes = k * n_paths
    n_steps = grid.size - 1
    f_fn = compile_fn(spec.f)
    g_fn = compile_fn(spec.g)
    gx_fn = compile_fn(differentiate(spec.g, "x")) if method == "milstein" else None
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
    block = np.empty((lanes, min(_BLOCK_STEPS, n_steps)))

    X = np.full(lanes, float(spec.x0))
    v = np.empty(lanes)
    alive = True
    flagged = np.zeros(lanes, dtype=bool)
    sqrt_dtau = np.sqrt(np.diff(grid))

    with np.errstate(all="ignore"):
        for i in range(n_steps):
            j = i % _BLOCK_STEPS
            if j == 0:
                width = min(_BLOCK_STEPS, n_steps - i)
                for row, gen in zip(block, gens):
                    gen.standard_normal(out=row[:width])
            t = grid[i]
            dtau = grid[i + 1] - grid[i]
            dW = block[:, j] * sqrt_dtau[i]
            for lane_slice, var_fn in policies:
                v[lane_slice] = var_fn(i, t, X[lane_slice])
            dB = np.sqrt(v) * dW
            for obs in observers:
                obs.pre_step(i, t, X, v, dW, dB, dtau, alive)
            Xn = X + f_fn(X, t) * dtau + g_fn(X, t) * dB
            if gx_fn is not None:
                Xn = Xn + 0.5 * g_fn(X, t) * gx_fn(X, t) * v * (dW * dW - dtau)
            if alive is True and np.abs(Xn).max() <= EXPLOSION_THRESHOLD:
                X = Xn
            else:
                bad = alive & ~(np.abs(Xn) <= EXPLOSION_THRESHOLD)
                for x in X[bad & ~np.isfinite(Xn)].tolist():
                    check_domain((spec.f, spec.g), x, float(t))
                flagged |= bad
                alive = ~flagged
                X = np.where(alive, Xn, np.nan)
            for obs in observers:
                obs.post_step(i, grid[i + 1], X, alive)
    return _LaneResult(X=X, flagged=flagged, n_scenarios=k)


def _scenario_groups(scenarios, n_paths: int) -> list:
    """Split a family into engine calls of at most _MAX_LANES lanes, at
    least one scenario each."""
    size = max(1, _MAX_LANES // n_paths)
    return [scenarios[q:q + size] for q in range(0, len(scenarios), size)]


def _validate_run(spec, horizon, dt, n_paths):
    if spec.x0 == 0:
        raise EstimationError("x0 must be nonzero (rates normalize by |x0|)")
    if n_paths < 1:
        raise EstimationError("n_paths must be >= 1")
    if not (horizon > 0 and dt > 0):
        raise EstimationError("horizon and dt must be positive")
    if dt > horizon:
        raise EstimationError("dt must not exceed the horizon")


# ---------------------------------------------------------------------------
# exponent estimation

def _scenario_exponents(
    spec, scenarios, b, grid, seed, n_paths, method, horizon
) -> list[ScenarioExponent]:
    """Exponent statistics of each scenario, one lane-engine run per
    scenario group."""
    out = []
    for group in _scenario_groups(scenarios, n_paths):
        obs = _ExponentObserver(spec.x0, spec.t0, horizon, len(group), n_paths)
        res = _run_lanes(spec, group, b, grid, seed, n_paths, method, [obs])
        for s, acc, flagged, n_flagged, slope in zip(
            group,
            res.per_scenario(obs.acc),
            res.per_scenario(res.flagged),
            res.n_flagged(),
            obs.slopes(),
        ):
            ok = ~flagged
            if not ok.any():
                out.append(ScenarioExponent(
                    label=s.label(),
                    mean=float("nan"),
                    max=float("nan"),
                    stderr=float("nan"),
                    slope=float("nan"),
                    n_paths=n_paths,
                    n_flagged=n_paths,
                ))
                continue
            vals = acc[ok]
            out.append(ScenarioExponent(
                label=s.label(),
                mean=_centered_mean(vals),
                max=float(np.max(vals)),
                stderr=_stderr(vals),
                slope=slope,
                n_paths=n_paths,
                n_flagged=n_flagged,
            ))
    return out


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
    _validate_run(spec, horizon, dt, n_paths)
    scenarios = list(scenarios)
    if not scenarios:
        raise EstimationError("need at least one scenario")
    grid = uniform_grid(spec.t0, horizon, dt)
    per = _scenario_exponents(
        spec, scenarios, b, grid, seed, n_paths, method, horizon
    )
    means = [s.mean for s in per if not math.isnan(s.mean)]
    maxes = [s.max for s in per if not math.isnan(s.max)]
    if not means:
        raise EstimationError(
            "every path of every scenario was flagged; no rate estimate"
        )
    return ExponentEstimate(
        scenarios=tuple(per),
        family_sup=max(maxes),
        family_sup_mean=max(means),
        n_paths=n_paths,
        horizon=horizon,
        dt=dt,
    )


# ---------------------------------------------------------------------------
# sublinear expectation of path functionals

def _functional_values(name, p, res: _LaneResult, obs: _FunctionalObserver):
    if name == "terminal_abs_pow":
        return np.abs(res.X) ** p
    if name == "running_max_abs":
        return obs.runmax
    if name == "terminal_b":
        return obs.B
    if name == "terminal_qv":
        return obs.QV
    if name == "terminal_b_plus_qv":
        return obs.B + obs.QV
    raise EstimationError(f"unknown functional {name!r}")


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
    scenarios = list(scenarios)
    if not scenarios:
        raise EstimationError("need at least one scenario")
    labels = tuple(s.label() for s in scenarios)
    if functional == "constant":
        means = tuple(float(constant_value) for _ in scenarios)
        return SublinearEstimate(
            value=float(constant_value),
            argmax_label=labels[0],
            functional=functional,
            labels=labels,
            means=means,
            stderrs=tuple(0.0 for _ in scenarios),
            n_flagged=tuple(0 for _ in scenarios),
            n_paths=n_paths,
        )
    _validate_run(spec, horizon, dt, n_paths)
    grid = uniform_grid(spec.t0, horizon, dt)
    means = []
    stderrs = []
    n_flagged = []
    for group in _scenario_groups(scenarios, n_paths):
        obs = _FunctionalObserver(spec.x0, len(group) * n_paths)
        res = _run_lanes(spec, group, b, grid, seed, n_paths, method, [obs])
        for row, flagged in zip(
            res.per_scenario(_functional_values(functional, p, res, obs)),
            res.per_scenario(res.flagged),
        ):
            vals = row[~flagged]
            means.append(_centered_mean(vals))
            stderrs.append(_stderr(vals))
        n_flagged += res.n_flagged()
    finite = [m for m in means if not math.isnan(m)]
    if not finite:
        raise EstimationError("every scenario was fully flagged")
    value = max(finite)
    argmax = labels[means.index(value)]
    return SublinearEstimate(
        value=value,
        argmax_label=argmax,
        functional=functional,
        labels=labels,
        means=tuple(means),
        stderrs=tuple(stderrs),
        n_flagged=tuple(n_flagged),
        n_paths=n_paths,
    )


# ---------------------------------------------------------------------------
# adversarial scenario search

def adversarial_search(
    spec: SdeSpec,
    b: AmbiguityBounds,
    budget: int,
    horizon: float,
    dt: float,
    n_paths: int,
    seed: int,
    richness: int = 3,
    max_switches: int = 3,
    method: str = "euler",
) -> SearchResult:
    """Search for the scenario with the largest mean pathwise rate.

    Phase one evaluates the deterministic family from enumerate_family;
    phase two runs coordinate descent on the switch times of an
    alternating band-edge schedule (both starting phases), spending the
    remaining budget.  Every evaluation reuses the same Wiener streams, so
    objective comparisons are noise-free and the result can never fall
    below the best family member actually evaluated.  A scenario with any
    flagged path scores +inf (an escape to the integration boundary is the
    worst outcome for stability).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not (1 <= max_switches <= 4):
        raise ValueError("max_switches must be in 1..4")
    _validate_run(spec, horizon, dt, n_paths)
    grid = uniform_grid(spec.t0, horizon, dt)

    def objectives(cands) -> list[float]:
        return [
            float("inf") if est.n_flagged > 0 else est.mean
            for est in _scenario_exponents(
                spec, cands, b, grid, seed, n_paths, method, horizon
            )
        ]

    def objective(s) -> float:
        return objectives([s])[0]

    family = enumerate_family(b, richness)
    phase_one = family[:budget]
    evaluations = len(phase_one)
    best: tuple[float, VolatilityScenario] | None = None
    for s, val in zip(phase_one, objectives(phase_one)):
        if best is None or val > best[0]:
            best = (val, s)
    baseline_complete = evaluations >= len(family)

    lo, hi = b.v_lower, b.v_upper

    def schedule(times, start_high):
        first = hi if start_high else lo
        second = lo if start_high else hi
        levels = tuple(first if j % 2 == 0 else second for j in range(len(times)))
        return BangBangInTime(tuple(times), levels)

    if baseline_complete and evaluations < budget:
        m = max_switches
        times = [horizon * (j + 1) / (m + 1) for j in range(m)]
        phases = {}
        for start_high in (True, False):
            if evaluations >= budget:
                break
            cand = schedule(times, start_high)
            val = objective(cand)
            evaluations += 1
            phases[start_high] = val
            if val > best[0]:
                best = (val, cand)
        if phases:
            start_high = max(phases, key=phases.get)
            current = list(times)
            current_val = phases[start_high]
            improving = True
            while improving and evaluations < budget:
                improving = False
                for ci in range(m):
                    left = current[ci - 1] if ci > 0 else 0.0
                    right = current[ci + 1] if ci + 1 < m else horizon
                    span = right - left
                    for frac in (0.25, 0.5, 0.75):
                        if evaluations >= budget:
                            break
                        t_new = left + frac * span
                        if abs(t_new - current[ci]) < dt or t_new <= left:
                            continue
                        trial = current.copy()
                        trial[ci] = t_new
                        cand = schedule(sorted(trial), start_high)
                        val = objective(cand)
                        evaluations += 1
                        if val > current_val:
                            current = sorted(trial)
                            current_val = val
                            improving = True
                            if val > best[0]:
                                best = (val, cand)
                    if evaluations >= budget:
                        break

    return SearchResult(
        scenario=best[1],
        exponent=best[0],
        evaluations=evaluations,
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

    Integrates the SDE to tau_(k_max), accumulates N and its quadratic
    variation, and snapshots the running max of N - (gamma_k/2) Q at each
    checkpoint tau_k.  k0 per path is the first index from which the bound
    holds through k_max.
    """
    if n_paths < 1:
        raise EstimationError("n_paths must be >= 1")
    taus = mspec.taus()
    gammas = mspec.gammas()
    horizon = float(taus[-1])
    _validate_run(spec, horizon, dt, n_paths)
    grid = uniform_grid(spec.t0, horizon, dt)
    dt_actual = (grid[-1] - grid[0]) / (grid.size - 1)
    # checkpoint j lands after the step ending nearest tau_j
    snap_steps = np.clip(
        np.rint((taus - grid[0]) / dt_actual).astype(np.int64) - 1,
        0,
        grid.size - 2,
    )
    eta_fn = compile_fn(mspec.eta)
    obs = _MartingaleObserver(eta_fn, gammas, snap_steps, n_paths)
    res = _run_lanes(spec, [scenario], b, grid, seed, n_paths, method, [obs])

    bounds = (mspec.theta / gammas) * np.log(mspec.growth_values())
    ok = obs.M <= bounds[:, None]
    ok_suffix = np.flip(np.logical_and.accumulate(np.flip(ok, 0), 0), 0)
    k0 = np.where(
        ok_suffix.any(axis=0), ok_suffix.argmax(axis=0) + 1, -1
    ).astype(np.int64)
    unflagged = ~res.flagged
    n_ok = int(unflagged.sum())
    if n_ok == 0:
        raise EstimationError("every path was flagged; no martingale check")
    fraction = float(np.mean(k0[unflagged] != -1))
    violation = np.mean(~ok[:, unflagged], axis=1)
    return MartingaleReport(
        fraction_satisfied=fraction,
        k0=k0,
        violation_fraction=violation,
        bounds=bounds,
        n_paths=n_paths,
        n_flagged=res.n_flagged()[0],
        scenario_label=scenario.label(),
    )
