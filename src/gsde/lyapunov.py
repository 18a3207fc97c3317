"""Machine-checked stability and instability certificates.

Given an energy function V(x,t) and SDE coefficients f, g over a
volatility band, the grid operators are

    L(V)       = V_t + f V_x + g^2 * g_upper(V_xx)   worst-case drift of V
    H(V)       = g^2 * V_x^2                          noise intensity seen by V
    L_lower(V) = V_t + f V_x + g^2 * g_lower(V_xx)   best-case drift of V

L dominates the drift of V under every admissible variance rate and
L_lower is dominated by it, so pointwise inequalities on these operators
certify pathwise decay (or growth) bounds that hold across the whole
ambiguity band at once.  All three come from one sample_operators pass.
A caller that checks many certificates, such as a sweep, passes
check_certificate one SampleHolder, which keeps the last check's pass: a
check whose inputs are bit-equal reuses it whole, so a sweep over a
certificate parameter samples once, and one on the same band and grid
recomputes only the operators that read a changed input; a check without
a holder samples.  A sample computes its drifts, its envelope verdicts
and its V > 0 refusal once, however many checks read it.

check_certificate machine-checks the hypothesis set of one of six
certificate templates (ids T33..T38) on a deterministic grid and, when
every hypothesis holds, grants an implied bound on the pathwise
exponential rate limsup (1/t) log|X|:

    T33  |x|^p <= V,  LV <= -lambda V                       ->  -lambda/p
    T34  LV <= lambda phi V, HV >= rho phi V^2, Cesaro(phi) >= kappa,
         lambda < v_lower rho/2        -> -(kappa/p)(v_lower rho/2 - lambda)
    T35  LV <= -lambda V + nu e^{-lambda t}, HV <= nu e^{-lambda t} V,
         nu polynomial > 0 with nu(t) >= t                  ->  -lambda/p
    T36  e^{lambda t}|x|^p <= V, LV + eta (1+t)^{-q} HV <= phi (1 + V^beta),
         subexponential int phi                             ->  -lambda/p
    T37  e^{lambda t}|x|^p <= V, LV + v_upper eta e^{-qt} HV <=
         phi1 + phi2 V^beta, growth caps q and q(1-beta)    ->  -(lambda-q)/p
    T38  |x|^p >= V, L_lower V >= lambda phi V, HV <= rho phi V^2,
         Cesaro(phi) >= kappa, lambda > v_upper rho/2
                                       ->  liminf >= +(kappa/p)(lambda - v_upper rho/2)

Pointwise hypotheses pass when violated by at most 1e-9 relative.  The
time-average hypotheses (Cesaro lower bounds, log-growth caps) can only be
sampled up to the grid horizon; they are extrapolated from the last decade
of grid time and their verdicts carry horizon_limited = True.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .csvio import fmt, write_csv
from .expr import (
    Expr,
    contains_nonsmooth,
    differentiate,
    evaluate,
    free_variables,
    to_source,
)
from .gcalc import AmbiguityBounds, g_lower, g_upper
from .integrator import SdeSpec
from .scenario import _check_grid

__all__ = [
    "LyapunovFn",
    "CheckGrid",
    "CertificateSpec",
    "CERT_PARAMS",
    "TIME_WEIGHTS",
    "HypothesisVerdict",
    "CertificateReport",
    "CertificateError",
    "OperatorSample",
    "SampleHolder",
    "sample_operators",
    "validate_certificate",
    "check_certificate",
    "write_certificate_csv",
    "verdict_line",
]

REL_SLACK = 1e-9
# Extrapolated limits get an absolute allowance instead; the pointwise
# relative slack is meaningless for a regression intercept.
EXTRAPOLATION_SLACK = 1e-6


class CertificateError(Exception):
    pass


@dataclass(frozen=True)
class LyapunovFn:
    """Candidate energy function with symbolic partials."""

    V: Expr
    V_t: Expr
    V_x: Expr
    V_xx: Expr

    @classmethod
    def from_expr(cls, V: Expr) -> "LyapunovFn":
        V_x = differentiate(V, "x")
        return cls(
            V=V,
            V_t=differentiate(V, "t"),
            V_x=V_x,
            V_xx=differentiate(V_x, "x"),
        )


@dataclass(frozen=True)
class CheckGrid:
    """States and times the checker samples.

    ts obeys scenario's time-grid rule for stepping grids (a ts that
    breaks it raises ScenarioError).  xs excludes a ball around 0
    (|x| >= x_min > 0): the certificates constrain decay rates of |X| and
    their hypotheses often degenerate at the origin.  The default grid is
    200 log-spaced magnitudes per sign in [1e-3, 10] and 200 times
    spanning 20 time units from t0.
    """

    xs: np.ndarray
    ts: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        if xs.size == 0:
            raise ValueError("grid must be nonempty")
        if not np.all(np.isfinite(xs)):
            raise ValueError("grid must be finite")
        if np.any(xs == 0):
            raise ValueError("grid x points must exclude 0")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", _check_grid(self.ts))

    @classmethod
    def default(
        cls,
        t0: float = 0.0,
        x_min: float = 1e-3,
        x_max: float = 10.0,
        x_points: int = 200,
        t_span: float = 20.0,
        t_points: int = 200,
    ) -> "CheckGrid":
        if not (0 < x_min < x_max < math.inf and 0 < t_span < math.inf):
            raise ValueError("need 0 < x_min < x_max and a finite t_span > 0")
        if x_points < 1:
            raise ValueError("x_points must be >= 1")
        if t_points < 0:  # 0 or 1 times are refused by the time-grid rule
            raise ValueError("t_points must not be negative")
        mags = np.geomspace(x_min, x_max, x_points)
        return cls(
            xs=np.concatenate([-mags[::-1], mags]),
            ts=np.linspace(t0, t0 + t_span, t_points),
        )


# ---------------------------------------------------------------------------
# operators

@dataclass(frozen=True)
class OperatorSample:
    """V and its operators at the points (x, t), from a single evaluation
    of each input: V, H = g^2 V_x^2 and the parts that drift() combines
    into L or L_lower, each at the shape its expression evaluates to (a
    column on the grid axes when it depends on x alone); x and t are the
    broadcast points."""

    x: np.ndarray
    t: np.ndarray
    b: AmbiguityBounds
    V: np.ndarray
    H: np.ndarray
    first_order: np.ndarray  # V_t + f V_x
    g2: np.ndarray
    V_xx: np.ndarray

    @cached_property
    def known(self) -> dict:
        """What once() computed from this sample, by its key."""
        return {}

    def once(self, key, compute):
        """compute(), computed once per sample for key; one that raises is
        computed again when asked again."""
        if key not in self.known:
            self.known[key] = compute()
        return self.known[key]

    def drift(self, envelope) -> np.ndarray:
        """V_t + f V_x + g^2 envelope(V_xx): the worst-case drift L with
        g_upper, the best-case drift L_lower with g_lower.  It is computed
        once per envelope and is read-only."""
        return self.once(envelope, lambda: _read_only(
            self.first_order + self.g2 * envelope(self.V_xx, self.b)))


# the inputs a sample evaluates, in evaluation order
_INPUTS = ("V", "g", "V_t", "f", "V_x", "V_xx")
# each operator field of OperatorSample: the inputs it reads, and its value
# from their evaluations
_OPERATORS = {
    "V": (("V",), lambda v: v["V"]),
    "H": (("g", "V_x"), lambda v: v["g"] * v["g"] * v["V_x"] * v["V_x"]),
    "first_order": (("V_t", "f", "V_x"), lambda v: v["V_t"] + v["f"] * v["V_x"]),
    "g2": (("g",), lambda v: v["g"] * v["g"]),
    "V_xx": (("V_xx",), lambda v: v["V_xx"]),
}


def _input_exprs(lyap: LyapunovFn, spec: SdeSpec) -> dict:
    return dict(zip(_INPUTS, (lyap.V, spec.g, lyap.V_t, spec.f, lyap.V_x, lyap.V_xx)))


def sample_operators(
    lyap: LyapunovFn, spec: SdeSpec, b: AmbiguityBounds, x, t
) -> OperatorSample:
    """Evaluate V, g, V_t, f, V_x and V_xx once each, in that order, at the
    points (x, t); the first domain violation raises.  On grid axes (a
    column of states, a row of times) a subtree is evaluated at the shape
    of its own variables, and only subtrees mixing x and t are full-size."""
    return _sample(lyap, spec, b, x, t, {})


def _sample(lyap, spec, b, x, t, kept: dict) -> OperatorSample:
    """sample_operators with the operators of kept: each other operator is
    computed from the inputs it reads, and only those inputs are
    evaluated, in _INPUTS order."""
    stale = [name for name in _OPERATORS if name not in kept]
    needed = {i for name in stale for i in _OPERATORS[name][0]}
    exprs = _input_exprs(lyap, spec)
    vals = {i: evaluate(exprs[i], x, t) for i in _INPUTS if i in needed}
    x, t = np.broadcast_arrays(x, t)
    return OperatorSample(x, t, b, **kept,
                          **{name: _OPERATORS[name][1](vals) for name in stale})


@dataclass(eq=False)
class SampleHolder:
    """One slot for the operator sample of a run of checks, such as one
    sweep: last is the last check's inputs (_inputs) and sample, or None.
    The sample is a pure function of those inputs, so no check can see
    whose check left it.  built is the caller's own slot for what it built
    the last check's arguments from (config.build_check keeps its builders'
    products there)."""

    last: tuple[tuple, OperatorSample] | None = None
    built: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# certificate specification

@dataclass(frozen=True)
class CertificateSpec:
    """Parameters of one certificate template.

    Which fields are required depends on the template: p always; lam for
    every template except T33, where it may be omitted and the checker
    then certifies the largest rate the grid allows (the infimum of
    -LV/V); rho/kappa/phi for T34 and T38; nu_coeffs for T35;
    eta/q/beta_exp/phi for T36; eta/q/beta_exp/phi1/phi2 for T37.
    phi, phi1, phi2 are deterministic time weights: expressions in t only.
    """

    theorem: str
    p: float
    lam: float | None = None
    rho: float | None = None
    kappa: float | None = None
    eta: float | None = None
    q: float | None = None
    beta_exp: float | None = None
    phi: Expr | None = None
    phi1: Expr | None = None
    phi2: Expr | None = None
    nu_coeffs: tuple[float, ...] | None = None


# the numeric certificate fields in checking order: field -> (config name,
# as in certificate.<name>; range rule, None for any value; what it asks)
CERT_PARAMS = {
    "p": ("p", lambda v: v > 0, "must be positive"),
    "lam": ("lambda", None, None),
    "rho": ("rho", lambda v: v >= 0, "must be nonnegative"),
    "kappa": ("kappa", lambda v: v > 0, "must be positive"),
    "eta": ("eta", lambda v: v > 0, "must be positive"),
    "q": ("q", lambda v: v > 0, "must be positive"),
    "beta_exp": ("beta_exp", lambda v: 0 <= v < 1, "must lie in [0, 1)"),
}
TIME_WEIGHTS = ("phi", "phi1", "phi2")


def validate_certificate(cert: CertificateSpec, b: AmbiguityBounds) -> None:
    """Reject malformed certificate parameter sets: missing fields for the
    chosen template or fields it does not use (named as config keys),
    out-of-range or non-finite parameters, state-dependent time weights,
    or a lambda that breaks its template's rule."""
    tpl = _TEMPLATES.get(cert.theorem)
    if tpl is None:
        raise CertificateError(f"unknown certificate template {cert.theorem!r}")
    missing = [n for n in ("p", *tpl.fields) if getattr(cert, n) is None]
    if missing:
        raise CertificateError(f"{cert.theorem} needs fields {', '.join(missing)}")
    unused = [CERT_PARAMS.get(f.name, (f.name,))[0] for f in fields(cert)
              if f.name not in ("theorem", "p", "lam", *tpl.fields)
              and getattr(cert, f.name) is not None]
    if unused:
        raise CertificateError(f"{cert.theorem} does not use {', '.join(unused)}")
    given = [(*row, getattr(cert, name)) for name, row in CERT_PARAMS.items()
             if getattr(cert, name) is not None]
    # a range that admits inf (all but beta_exp's) needs a finite check first
    for key, rule, _, val in given:
        if not math.isfinite(val) and (rule is None or rule(math.inf)):
            raise CertificateError(f"{key} must be finite")
    for key, rule, message, val in given:
        if rule is not None and not rule(val):
            raise CertificateError(f"{key} {message}")
    for name in TIME_WEIGHTS:
        e = getattr(cert, name)
        if e is not None and "x" in free_variables(e):
            raise CertificateError(
                f"{name} must be a deterministic time weight (t only)"
            )
    coeffs = cert.nu_coeffs
    if coeffs is not None:
        if len(coeffs) < 2:
            raise CertificateError("nu must have degree >= 1")
        if any(not 0 < c < math.inf for c in coeffs):
            raise CertificateError("nu coefficients must be positive and finite")
    admissible, message = tpl.lam_rule
    if not admissible(cert, b):
        raise CertificateError(message)


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class HypothesisVerdict:
    """One checked hypothesis.  violation is the worst signed relative
    violation over the grid (<= REL_SLACK passes); for horizon-limited
    time hypotheses it is the extrapolated shortfall."""

    name: str
    passed: bool
    violation: float
    worst_x: float | None = None
    worst_t: float | None = None
    horizon_limited: bool = False
    note: str = ""


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one check; bound is None unless granted."""

    theorem: str
    hypotheses: tuple[HypothesisVerdict, ...]
    granted: bool
    bound: float | None
    lam: float | None
    p: float
    caveats: tuple[str, ...] = field(default_factory=tuple)

    def hypothesis(self, name: str) -> HypothesisVerdict:
        for h in self.hypotheses:
            if h.name == name:
                return h
        raise KeyError(name)


# The most grid points a comparison works on at once: 128 KB for each
# float temporary, so a block's arithmetic stays in cache.
_BLOCK_POINTS = 16384


def _pointwise(m: OperatorSample, name, lhs, rhs) -> HypothesisVerdict:
    """Check lhs <= rhs at the sample points with relative slack:
    rel = (lhs - rhs) / max(1, |lhs|, |rhs|), at the broadcast shape of the
    two sides (padded to 2-D), in blocks of rows of at most _BLOCK_POINTS
    points and two block-size buffers.  The first maximum in row-major
    order is the worst point, as argmax on the full grid gives it.  rel is
    nan exactly where a side is not finite: refused at its first point."""
    lhs, rhs = np.broadcast_arrays(np.atleast_2d(lhs), np.atleast_2d(rhs))
    rows, cols = lhs.shape
    step = max(1, _BLOCK_POINTS // cols)
    scale = np.empty((min(step, rows), cols))
    rel = np.empty_like(scale)
    worst, at = -math.inf, 0  # where every rel is -inf, the first point
    for r0 in range(0, rows, step):
        lo, hi = lhs[r0:r0 + step], rhs[r0:r0 + step]
        s, q = scale[:len(lo)], rel[:len(lo)]
        np.abs(lo, out=s)
        np.abs(hi, out=q)
        np.maximum(s, q, out=s)
        np.maximum(1.0, s, out=s)
        np.subtract(lo, hi, out=q)
        np.divide(q, s, out=q)
        k = int(np.argmax(q))  # the first nan, if there is one
        v = float(q.flat[k])
        if math.isnan(v):  # earlier blocks had none
            _refuse_at(m, ~(np.isfinite(lhs) & np.isfinite(rhs)),
                       f"{name}: {lo.flat[k]:.6g} <= {hi.flat[k]:.6g} is not finite")
        if v > worst:
            worst, at = v, r0 * cols + k
    return HypothesisVerdict(name, worst <= REL_SLACK, worst,
                             *_point(m, lhs.shape, at))


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def _last_decade(ts: np.ndarray) -> np.ndarray:
    t_max = float(ts[-1])
    cut = max(t_max / 10.0, float(ts[0]))
    mask = (ts >= cut) & (ts > 0)
    if mask.sum() < 4:
        mask = ts > 0
    return mask


def _intercept(name, y, *columns) -> float:
    """The intercept of the least-squares fit of y on 1 and the columns,
    refused when the fit window has fewer points than unknowns."""
    if y.size <= len(columns):
        raise CertificateError(f"{name}: {y.size} grid time(s) in the fit "
                               f"window, fewer than its {1 + len(columns)} unknowns")
    basis = np.stack([np.ones_like(y), *columns], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(coef[0])


def _extrapolated(name, violation, worst_t, note) -> HypothesisVerdict:
    """A horizon-limited verdict, passed within EXTRAPOLATION_SLACK and
    refused when nan (an overflowed integral)."""
    if math.isnan(violation):
        raise CertificateError(f"{name}: {note} is not finite")
    return HypothesisVerdict(name, violation <= EXTRAPOLATION_SLACK, violation,
                             None, worst_t, True, note)


def _cesaro_lower(name, phi_vals, ts, kappa) -> HypothesisVerdict:
    """liminf (1/t) int_{t0}^t phi >= kappa, extrapolated from the last
    decade of grid time: the Cesaro average behaves like a + c/t there, so
    the intercept of a {1, 1/t} regression estimates the limit."""
    Q = _cumtrapz(phi_vals, ts)
    mask = _last_decade(ts)
    t = ts[mask]
    A = Q[mask] / t
    limit = _intercept(name, A, 1.0 / t)
    return _extrapolated(
        name, (kappa - limit) / max(1.0, abs(kappa)), float(t[np.argmin(A)]),
        f"extrapolated Cesaro limit {limit:.6g} vs required {kappa:.6g}")


def _loggrowth_cap(name, phi_vals, ts, cap) -> HypothesisVerdict:
    """limsup (1/t) log int_{t0}^t phi <= cap, extrapolated from the last
    decade: log Q(t)/t = a + b/t + c log(t)/t for exponential-polynomial
    integrals, so the intercept of that regression estimates the limit.
    An integral that is zero through the window passes trivially."""
    Q = _cumtrapz(phi_vals, ts)
    window = _last_decade(ts)
    mask = window & (Q > 0)
    if window.any() and not mask.any():
        return _extrapolated(name, float("-inf"), None,
                             "integral is identically zero; growth rate -inf")
    t = ts[mask]
    L = np.log(Q[mask]) / t
    limit = _intercept(name, L, 1.0 / t, np.log(t) / t)
    return _extrapolated(
        name, (limit - cap) / max(1.0, abs(cap)), float(t[-1]),
        f"extrapolated growth rate {limit:.6g} vs cap {cap:.6g}")


# ---------------------------------------------------------------------------
# the templates
#
# A template's hypotheses(m, c, ts) takes the operator sample m on the grid
# (times along axis 1), the certificate c and the grid times ts, and returns
# the rate lambda in force with the verdicts after the envelope.

def _t33(m, c, ts):
    L = m.drift(g_upper)
    if c.lam is not None:
        return c.lam, [_pointwise(m, "decay", L, -c.lam * m.V)]
    ratios = np.atleast_2d(-L / m.V)
    _refuse_at(m, ~np.isfinite(ratios), "decay: -LV/V is not finite")
    k = int(np.argmin(ratios))
    best = float(ratios.flat[k])
    found = best > 0
    note = (f"best decay rate lambda = {best:.12g}" if found
            else f"no positive rate: inf(-LV/V) = {best:.12g}")
    decay = HypothesisVerdict(
        "decay", found, 0.0 if found else -best,
        *_point(m, ratios.shape, k), note=note,
    )
    return (best if found else None), [decay]


def _t34(m, c, ts):
    phi = _time_weight(c.phi, ts)
    w = phi[None, :]
    return c.lam, [
        _pointwise(m, "drift", m.drift(g_upper), c.lam * w * m.V),
        _pointwise(m, "noise_floor", c.rho * w * m.V * m.V, m.H),
        _cesaro_lower("time_average", phi, ts, c.kappa),
    ]


def _t35(m, c, ts):
    nu = _polyval(c.nu_coeffs, ts)
    nu_decay = nu[None, :] * np.exp(-c.lam * ts)[None, :]
    return c.lam, [
        _pointwise(m, "drift", m.drift(g_upper), -c.lam * m.V + nu_decay),
        _pointwise(m, "noise_ceiling", m.H, nu_decay * m.V),
        _nu_dominates_t(c.nu_coeffs, nu, ts),
    ]


def _t36(m, c, ts):
    phi = _time_weight(c.phi, ts)
    weight = c.eta * (1.0 + ts[None, :]) ** (-c.q)
    drift = m.drift(g_upper) + weight * m.H
    return c.lam, [
        _pointwise(m, "drift", drift, phi[None, :] * (1.0 + m.V**c.beta_exp)),
        _loggrowth_cap("weight_growth", phi, ts, 0.0),
    ]


def _t37(m, c, ts):
    phi1 = _time_weight(c.phi1, ts)
    phi2 = _time_weight(c.phi2, ts)
    weight = m.b.v_upper * c.eta * np.exp(-c.q * ts[None, :])
    drift = m.drift(g_upper) + weight * m.H
    cap = phi1[None, :] + phi2[None, :] * m.V**c.beta_exp
    return c.lam, [
        _pointwise(m, "drift", drift, cap),
        _loggrowth_cap("weight1_growth", phi1, ts, c.q),
        _loggrowth_cap("weight2_growth", phi2, ts, c.q * (1.0 - c.beta_exp)),
    ]


def _t38(m, c, ts):
    phi = _time_weight(c.phi, ts)
    w = phi[None, :]
    return c.lam, [
        _pointwise(m, "drift", c.lam * w * m.V, m.drift(g_lower)),
        _pointwise(m, "noise_ceiling", m.H, c.rho * w * m.V * m.V),
        _cesaro_lower("time_average", phi, ts, c.kappa),
    ]


def _decay_bound(c, b, lam):
    return -lam / c.p


_POSITIVE = (lambda c, b: c.lam is None or c.lam > 0, "lambda must be positive")


class _Template(NamedTuple):
    fields: tuple[str, ...]  # required besides p
    lam_rule: tuple  # (admissible(cert, bounds), message otherwise)
    hypotheses: Callable  # (m, cert, ts) -> (lambda, verdicts)
    bound: Callable  # (cert, bounds, lambda) -> granted rate bound
    grows: bool = False  # envelope e^{lambda t} |x|^p <= V
    unstable: bool = False  # envelope V <= |x|^p; the bound is a liminf


_TEMPLATES = {
    "T33": _Template((), _POSITIVE, _t33, _decay_bound),
    "T34": _Template(
        ("lam", "rho", "kappa", "phi"),
        (lambda c, b: c.lam < b.v_lower * c.rho / 2,
         "T34 requires lambda < v_lower * rho / 2"),
        _t34,
        lambda c, b, lam: -(c.kappa / c.p) * (b.v_lower * c.rho / 2 - lam),
    ),
    "T35": _Template(("lam", "nu_coeffs"), _POSITIVE, _t35, _decay_bound),
    "T36": _Template(
        ("lam", "eta", "q", "beta_exp", "phi"), _POSITIVE, _t36,
        _decay_bound, grows=True,
    ),
    "T37": _Template(
        ("lam", "eta", "q", "beta_exp", "phi1", "phi2"), _POSITIVE, _t37,
        lambda c, b, lam: -(lam - c.q) / c.p, grows=True,
    ),
    "T38": _Template(
        ("lam", "rho", "kappa", "phi"),
        (lambda c, b: c.lam > b.v_upper * c.rho / 2,
         "T38 requires lambda > v_upper * rho / 2"),
        _t38,
        lambda c, b, lam: (c.kappa / c.p) * (lam - b.v_upper * c.rho / 2),
        unstable=True,
    ),
}


# ---------------------------------------------------------------------------
# the checker

@np.errstate(all="ignore")
def check_certificate(
    lyap: LyapunovFn,
    spec: SdeSpec,
    b: AmbiguityBounds,
    cert: CertificateSpec,
    grid: CheckGrid | None = None,
    held: SampleHolder | None = None,
) -> CertificateReport:
    """Machine-check one certificate template; grant the implied rate bound
    iff every hypothesis passes on the grid.  A hypothesis whose comparison
    is not finite raises CertificateError naming it and, where it has one,
    its first grid point; numpy's floating-point warnings are off.  Given
    a holder, a check whose V, partials, f, g, band and grid are bit-equal
    to those of the holder's last check reuses that check's operator
    sample, and the holder keeps this check's; without one, the check
    samples its operators and keeps nothing."""
    if grid is None:
        grid = CheckGrid.default(t0=spec.t0)
    validate_certificate(cert, b)
    tpl = _TEMPLATES[cert.theorem]
    m = _grid_sample(lyap, spec, b, grid, SampleHolder() if held is None else held)
    m.once("V > 0", lambda: _refuse_at(
        m, m.V <= 0, "V must be positive away from x = 0; V <= 0"))
    caveats = tuple(
        f"{name} uses abs/sign: derivatives are formal and do not "
        f"exist at the kink (x = 0 caveat)"
        for name, e in (("V", lyap.V), ("f", spec.f), ("g", spec.g))
        if contains_nonsmooth(e)
    )
    lam_in_force = cert.lam if tpl.grows else None
    envelope = m.once(("envelope", cert.p, lam_in_force, tpl.unstable),
                      lambda: _envelope(m, grid, cert.p, lam_in_force, tpl.unstable))
    lam, rest = tpl.hypotheses(m, cert, grid.ts)
    hyps = (envelope, *rest)
    granted = all(h.passed for h in hyps)
    return CertificateReport(
        theorem=cert.theorem,
        hypotheses=hyps,
        granted=granted,
        bound=tpl.bound(cert, b, lam) if granted else None,
        lam=lam,
        p=cert.p,
        caveats=caveats,
    )


def _envelope(m, grid, p, lam, unstable) -> HypothesisVerdict:
    """|x|^p e^{lambda t} <= V (or V <= |x|^p when unstable), the growth
    factor left out when lambda is None."""
    xs, ts = grid.xs[:, None], grid.ts[None, :]
    xp = np.abs(xs) ** p * (np.exp(lam * ts) if lam is not None else 1.0)
    return _pointwise(m, "envelope", *((m.V, xp) if unstable else (xp, m.V)))


def _inputs(lyap: LyapunovFn, spec: SdeSpec, b: AmbiguityBounds,
            grid: CheckGrid) -> tuple[dict, tuple]:
    """What the grid sample depends on, in a form that is equal only for
    bit-equal inputs: each input expression by name, and the band with
    the grid.  An expression is held as its source text, which tells
    Const(-0.0) from Const(0.0) where tree equality does not, and as its
    tree, which tells x^-c from 1/x^c where to_source does not.  The
    band's floats are positive and finite, so their equality is bit
    equality; the grid is compared by shape and bytes."""
    exprs = {name: (to_source(e), e) for name, e in _input_exprs(lyap, spec).items()}
    return exprs, (b, *((a.shape, a.tobytes()) for a in (grid.xs, grid.ts)))


def _grid_sample(lyap, spec, b, grid, holder: SampleHolder) -> OperatorSample:
    """sample_operators on the grid axes, or the holder's sample when its
    inputs were bit-equal.  On the holder's band and grid, the operators
    that read no changed input are the holder's, and only the inputs the
    others read are evaluated.  The sample is held with read-only arrays
    on copies of the axes, so neither a template nor a caller that writes
    to its grid can change it."""
    key = _inputs(lyap, spec, b, grid)
    # a sampling that raises holds nothing; the held operators that are not
    # kept are let go before the new ones are computed
    last, holder.last = holder.last, None
    if last is not None and last[0] == key:
        holder.last = last
        return last[1]
    kept = _kept(last, *key)
    last = None
    m = _sample(lyap, spec, b, grid.xs[:, None].copy(), grid.ts[None, :].copy(), kept)
    for f in fields(m):
        _read_only(getattr(m, f.name))
    holder.last = key, m
    return m


def _kept(last, exprs: dict, where: tuple) -> dict:
    """The operators of the held (inputs, sample) last that read no input
    that differs from exprs, when last was sampled on where's band and
    grid; none otherwise."""
    if last is None or last[0][1] != where:
        return {}
    held = last[0][0]
    changed = {i for i in _INPUTS if held[i] != exprs[i]}
    return {name: getattr(last[1], name) for name, (reads, _) in _OPERATORS.items()
            if changed.isdisjoint(reads)}


def _read_only(a):
    """a, made read-only if it is an array."""
    if isinstance(a, np.ndarray):
        a.flags.writeable = False
    return a


def _point(m: OperatorSample, shape, k) -> tuple[float, float]:
    """The grid point (x, t) of flat index k of a 2-D array whose shape
    broadcasts to the grid's.  Row i of an x-only array is grid point
    (i, 0) and column j of a t-only array is (0, j): the first occurrences
    in row-major order, as argmax or argmin on the full grid gives them."""
    at = np.unravel_index(k, shape)
    return float(m.x[at]), float(m.t[at])


def _refuse_at(m: OperatorSample, bad, what: str) -> None:
    """Raise CertificateError naming the first grid point where bad, an
    array whose shape broadcasts to the grid's."""
    bad = np.atleast_2d(bad)
    if np.any(bad):
        x, t = _point(m, bad.shape, int(np.argmax(bad)))
        raise CertificateError(f"{what} at x={x:.6g}, t={t:.6g}")


def _polyval(coeffs, t):
    """sum_i coeffs[i] t^i by Horner's rule, in the operation order of
    numpy.polynomial.polynomial.polyval (which numpy imports lazily)."""
    val = coeffs[-1] + t * 0
    for c in coeffs[-2::-1]:
        val = c + val * t
    return val


def _time_weight(e: Expr, ts: np.ndarray) -> np.ndarray:
    vals = np.broadcast_to(evaluate(e, 0.0, ts), ts.shape)
    if np.any(vals < 0):
        raise CertificateError(
            f"time weight {to_source(e)!r} must be nonnegative on the grid"
        )
    return vals


def _nu_dominates_t(coeffs, nu_grid, ts) -> HypothesisVerdict:
    """nu(t) >= t on the grid plus a coefficient test that extends the
    inequality beyond the horizon (nu_1 >= 1, or a degree >= 2 term which
    eventually dominates t since all coefficients are positive)."""
    rel = (ts - nu_grid) / np.maximum(1.0, np.abs(ts))
    k = int(np.argmax(rel))
    grid_ok = float(rel[k]) <= REL_SLACK
    tail_ok = len(coeffs) > 2 or coeffs[1] >= 1.0 - REL_SLACK
    note = "coefficient tail check: " + (
        "dominates beyond horizon" if tail_ok else "nu_1 < 1 and degree 1"
    )
    return HypothesisVerdict(
        name="nu_dominates_t",
        passed=grid_ok and tail_ok,
        violation=float(rel[k]) if not grid_ok else (0.0 if tail_ok else 1.0),
        worst_t=float(ts[k]),
        note=note,
    )


# ---------------------------------------------------------------------------
# report serialization

def write_certificate_csv(path, report: CertificateReport) -> None:
    """One row per hypothesis: name, passed, violation, worst point,
    horizon flag, note."""
    write_csv(
        path,
        ("hypothesis", "passed", "violation", "worst_x", "worst_t",
         "horizon_limited", "note"),
        [
            (h.name, h.passed, h.violation, h.worst_x, h.worst_t,
             h.horizon_limited, h.note)
            for h in report.hypotheses
        ],
    )


def verdict_line(report: CertificateReport) -> str:
    if report.granted:
        unstable = _TEMPLATES[report.theorem].unstable
        side = "liminf rate >=" if unstable else "limsup rate <="
        return f"{report.theorem}: granted ({side} {fmt(report.bound)})"
    failed = ", ".join(h.name for h in report.hypotheses if not h.passed)
    return f"{report.theorem}: withheld (failed: {failed})"
