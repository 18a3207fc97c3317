"""Monte Carlo estimators: rate statistics, worst-case expectations,
adversarial search, martingale bound check.

Light configurations throughout (short horizons, modest path counts);
the statistical assertions use generous multiples of the standard error.
"""

import ast
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from gsde import estimator, integrator
from gsde.estimator import (
    EstimationError,
    MartingaleCheckSpec,
    adversarial_search,
    estimate_exponent,
    estimate_sublinear_expectation,
    martingale_bound_check,
)
from gsde.expr import EvalDomainError, parse
from gsde.gcalc import AmbiguityBounds
from gsde.integrator import SdeSpec, integrate
from gsde.scenario import (
    BangBangInTime,
    BangBangInX,
    Constant,
    FeedbackSignVxx,
    PiecewiseRandom,
    ScenarioError,
    enumerate_family,
    uniform_grid,
)

B1 = AmbiguityBounds(1.0, 1.0)
B = AmbiguityBounds(0.5, 1.0)


def linear_spec(alpha, beta, x0=1.0):
    return SdeSpec(f=parse(f"-{alpha}*x"), g=parse(f"{beta}*x"), x0=x0)


class _PathRecorder:
    """Lane-engine observer keeping every lane's state after each step."""

    def __init__(self, x0):
        self.x0 = x0
        self.rows = []

    def pre_step(self, i, t, X, v, dW, dB, dtau, alive):
        if i == 0:
            self.rows.append(np.full(X.shape, self.x0))

    def post_step(self, i, t_next, X, alive):
        self.rows.append(X.copy())


# Two-sided Student t quantile with 9 degrees of freedom (10 batch means)
# at Bonferroni level 1% / 12, one share for each of the 12 chain-rate
# comparisons (2 methods x 3 dt x 2 band edges): t_9(1 - 0.01/24) = 4.912.
_FAMILY_T9 = 4.92


def _chain_rate(dt, v, method, nodes=200, span=12.0):
    """E log|factor| / dt for the one-step factor of f = -x, g = x at rate
    v, 1 - dt + sqrt(v dt) xi under Euler plus 0.5 v dt (xi^2 - 1) under
    Milstein, xi standard normal: the exact rate of the discrete chain.
    Gauss-Legendre on [-span, span], split at the factor's real roots,
    with nodes clustered at each piece's ends, where log|factor| has its
    integrable singularities."""
    coeffs = np.array([0.0, math.sqrt(v * dt), 1.0 - dt])
    if method == "milstein":
        coeffs += [0.5 * v * dt, 0.0, -0.5 * v * dt]
    roots = np.roots(np.trim_zeros(coeffs, "f"))
    real = np.sort(roots[np.isreal(roots)].real)
    edges = np.concatenate([[-span], real[np.abs(real) < span], [span]])
    u, w = np.polynomial.legendre.leggauss(nodes)
    s = (u + 1) / 2
    shape, dshape = (1 - np.cos(np.pi * s)) / 2, np.pi * np.sin(np.pi * s) / 4
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xi = a + (b - a) * shape
        density = np.exp(-0.5 * xi * xi) / math.sqrt(2 * math.pi)
        log_factor = np.log(np.abs(np.polyval(coeffs, xi)))
        total += np.sum(w * (b - a) * dshape * density * log_factor)
    return total / dt


class TestExponent:
    @pytest.mark.parametrize("method", ["euler", "milstein"])
    def test_slope_matches_the_discrete_chain_rate(self, method):
        """On f = -x, g = x each step multiplies X by an i.i.d. factor, so
        the cross-path mean of log|X| drifts at exactly E log|factor| / dt
        per unit time, at any dt.  slope at both band edges must match that
        quadrature within _FAMILY_T9 standard errors of batch means over 10
        seeds: the tolerance holds for the 12 comparisons together, so
        correct code whose Wiener streams are re-drawn fails with
        probability at most 1%.  At dt 0.05 the chain (-1.167 under Euler
        at v = 0.25) lies about 7 errors from the SDE's -1.125, so this
        checks the engine's draws and step against its own law, not
        against the SDE's."""
        spec = linear_spec(1.0, 1.0)
        edges = [Constant(B.v_lower), Constant(B.v_upper)]
        for dt in (0.2, 0.1, 0.05):
            slopes = np.array([
                [s.slope for s in estimate_exponent(
                    spec, edges, B, horizon=100.0, dt=dt, n_paths=100,
                    seed=seed, method=method,
                ).scenarios]
                for seed in range(10)
            ])
            se = slopes.std(axis=0, ddof=1) / math.sqrt(len(slopes))
            exact = [_chain_rate(dt, s.v, method) for s in edges]
            assert np.all(
                np.abs(slopes.mean(axis=0) - exact) <= _FAMILY_T9 * se
            ), (
                dt, slopes.mean(axis=0), exact, se
            )

    def test_noise_free_rate_matches_euler_logarithm(self):
        """beta = 0 collapses all paths onto the deterministic Euler orbit
        x -> x (1 - a dt): every path reports exactly log(1 - a dt)/dt,
        which sits within a^2 dt of the true rate -a."""
        a, dt = 1.0, 0.01
        spec = linear_spec(a, 0.0)
        est = estimate_exponent(
            spec, [Constant(1.0)], B1, horizon=10.0, dt=dt, n_paths=8, seed=0
        )
        s = est.scenarios[0]
        expected = math.log(1.0 - a * dt) / dt
        assert s.mean == pytest.approx(expected, rel=1e-9)
        assert s.max == pytest.approx(expected, rel=1e-9)
        assert s.stderr == 0.0
        assert abs(s.mean - (-a)) < a * a * dt
        assert s.slope == pytest.approx(expected, rel=1e-6)

    def test_linear_sde_rate(self):
        """Worst-case rate of dX = -X dt + X dB over [0.5, 1] is attained
        at the band floor: -1 - 0.5*0.25 = -1.125."""
        spec = linear_spec(1.0, 1.0)
        est = estimate_exponent(
            spec,
            [Constant(0.25), Constant(1.0)],
            B,
            horizon=50.0,
            dt=0.01,
            n_paths=200,
            seed=3,
        )
        floor, top = est.scenarios
        assert floor.mean == pytest.approx(-1.125, abs=0.05)
        assert top.mean == pytest.approx(-1.5, abs=0.05)
        assert est.family_sup_mean == floor.mean
        assert est.family_sup >= est.family_sup_mean

    def test_means_monotone_in_volatility(self):
        # rate -alpha - beta^2 v / 2 decreases in v; sample means with
        # shared driving noise preserve the ordering at these gaps
        spec = linear_spec(1.0, 1.0)
        est = estimate_exponent(
            spec,
            [Constant(0.25), Constant(0.625), Constant(1.0)],
            B,
            horizon=30.0,
            dt=0.01,
            n_paths=100,
            seed=5,
        )
        means = [s.mean for s in est.scenarios]
        assert means[0] > means[1] > means[2]

    def test_family_enlargement_never_lowers_sup(self):
        spec = linear_spec(1.0, 1.0)
        kwargs = dict(horizon=20.0, dt=0.01, n_paths=50, seed=9)
        small = estimate_exponent(spec, enumerate_family(B, 1), B, **kwargs)
        large = estimate_exponent(spec, enumerate_family(B, 3), B, **kwargs)
        assert large.family_sup_mean >= small.family_sup_mean
        assert large.family_sup >= small.family_sup

    def test_reproducible_bitwise(self):
        spec = linear_spec(1.0, 0.5)
        kwargs = dict(horizon=5.0, dt=0.01, n_paths=20, seed=21)
        a = estimate_exponent(spec, [Constant(0.5)], B, **kwargs)
        b = estimate_exponent(spec, [Constant(0.5)], B, **kwargs)
        assert a.scenarios[0].mean == b.scenarios[0].mean
        assert a.scenarios[0].max == b.scenarios[0].max

    def test_batch_matches_single_path_integrator(self):
        """The vectorized engine must reproduce integrate() path by path:
        same streams, same step arithmetic.  The second input has a
        fractional power in g, whose compiled kernel must give the same
        bits on integrate's Python floats as on the engine's lane arrays;
        the third squares dW in the Milstein correction where Python's
        ** 2 and a product differ in the last bit.  Then the level-stream
        and the two feedback policies under both schemes, and a drift
        where some paths explode: X agrees up to first_bad_index, and
        the engine flags exactly the exploded runs.  The 300-path,
        600-step calls cross the engine's real stage edges (128 + 128 +
        44 lanes) and block edges (256 + 256 + 88 steps).  Last, f and g
        use every operator that emits a numpy call, which integrate's
        step converts to float and the engine's keeps as arrays."""
        varied = SdeSpec(f=parse("-0.5*x"), g=parse("0.8*x + 0.2*sin(x)"), x0=1.0)
        numpy_calls = SdeSpec(
            f=parse("-x + 0.5*sin(t) + 0.1*log(1 + x^2)/(2 + cos(t))"),
            g=parse("0.5*x*exp(-t) + 0.1*sqrt(1 + x^2) + 0.1*sign(x)*abs(x)^1.5"),
            x0=-0.5,
        )
        cases = [
            (linear_spec(1.0, 1.0), Constant(0.25), 2.0, 0.01, 13, 4, "euler"),
            (SdeSpec(f=parse("-0.01*x"), g=parse("0.01*x^1.5"), x0=100.0),
             Constant(0.5), 5.0, 1e-3, 3, 8, "euler"),
            (SdeSpec(f=parse("-0.5*x"), g=parse("x^1.5"), x0=1.0),
             Constant(1.0), 2.0, 0.01, 22, 1, "milstein"),
        ] + [
            (varied, s, 2.0, 0.01, 5, 6, method)
            for s in (
                PiecewiseRandom(0.3),
                BangBangInX(1.0, 0.25, 1.0),
                FeedbackSignVxx(parse("x^4 - 3*x^2")),
            )
            for method in ("euler", "milstein")
        ] + [
            (varied, PiecewiseRandom(0.3), 6.0, 0.01, 4, 300, method)
            for method in ("euler", "milstein")
        ] + [
            (SdeSpec(f=parse("x*x*x"), g=parse("2*x"), x0=0.5),
             Constant(1.0), 2.0, 0.01, 8, 12, method)
            for method in ("euler", "milstein")
        ] + [
            (numpy_calls, BangBangInTime((0.5, 1.2), (1.0, 0.25)),
             2.0, 0.01, 9, 6, method)
            for method in ("euler", "milstein")
        ]
        n_exploded = 0
        for spec, s, horizon, dt, seed, n_paths, method in cases:
            grid = uniform_grid(0.0, horizon, dt)
            runs = [
                integrate(spec, s, B, grid, seed=seed, method=method, path_index=p)
                for p in range(n_paths)
            ]
            rec = _PathRecorder(spec.x0)
            _, flagged = integrator._run_lanes(
                spec, [s], B, grid, seed, n_paths, method, rec
            )
            for run, lane in zip(runs, np.array(rec.rows).T):
                end = run.first_bad_index or lane.size
                np.testing.assert_array_equal(lane[:end], run.bundle.X[:end])
                assert np.isnan(lane[end:]).all()
            np.testing.assert_array_equal(
                flagged, [run.exploded for run in runs]
            )
            n_exploded += sum(run.exploded for run in runs)
        assert 0 < n_exploded < 24

        spec = linear_spec(1.0, 1.0)
        grid = uniform_grid(0.0, 2.0, 0.01)
        singles = [
            integrate(spec, Constant(0.25), B, grid, seed=13, path_index=p)
            .bundle.X[-1]
            for p in range(4)
        ]
        est = estimate_sublinear_expectation(
            "terminal_abs_pow", spec, [Constant(0.25)], B,
            horizon=2.0, dt=0.01, n_paths=4, seed=13,
        )
        assert est.means[0] == pytest.approx(
            np.mean(np.abs(singles)), rel=1e-15, abs=0.0
        )

    def test_flagged_scenario_reports_nan(self):
        """dX = 2X dt + 2X dB has rate 2 - 2v: explosive at the band
        floor, neutral at the top.  The exploding scenario must be
        reported NaN without poisoning the family estimate."""
        spec = SdeSpec(f=parse("2*x"), g=parse("2*x"), x0=1.0)
        est = estimate_exponent(
            spec,
            [Constant(0.0625), Constant(1.0)],
            AmbiguityBounds(0.25, 1.0),
            horizon=25.0,
            dt=0.005,
            n_paths=4,
            seed=0,
        )
        floor, top = est.scenarios
        assert floor.n_flagged == 4
        assert math.isnan(floor.mean)
        assert top.n_flagged == 0
        assert est.family_sup_mean == top.mean

    def test_milstein_gx_domain_error_raises(self):
        """f = -2x with dt = 0.5 and g = 0 * sqrt(x^2) puts every lane at
        exactly x = 0 after one step, where Milstein's g_x divides 0 by 0
        while f and g stay finite: the lane engine must name the division
        instead of flagging every path."""
        spec = SdeSpec(f=parse("-2*x"), g=parse("0*sqrt(x^2)"), x0=1.0)
        with pytest.raises(EvalDomainError, match="division by zero in"):
            estimate_exponent(
                spec, [Constant(1.0)], B1, horizon=2.0, dt=0.5, n_paths=2,
                seed=0, method="milstein",
            )

    def test_all_flagged_raises(self):
        spec = SdeSpec(f=parse("x^3"), g=parse("0"), x0=10.0)
        with pytest.raises(EstimationError, match="flagged"):
            estimate_exponent(
                spec, [Constant(1.0)], B1, horizon=5.0, dt=0.1, n_paths=4,
                seed=0,
            )

    def test_all_flagged_refused_by_every_estimator(self):
        """x' = x^3 from 10 blows up in the first step: the sublinear
        expectation and the martingale check refuse instead of reporting."""
        spec = SdeSpec(f=parse("x^3"), g=parse("0"), x0=10.0)
        with pytest.raises(EstimationError, match="every scenario was fully flagged"):
            estimate_sublinear_expectation(
                "terminal_abs_pow", spec, [Constant(1.0)], B1, horizon=5.0,
                dt=0.1, n_paths=4, seed=0,
            )
        with pytest.raises(EstimationError,
                           match="every path was flagged; no martingale check"):
            martingale_bound_check(
                MartingaleCheckSpec(eta=parse("1"), k_max=5), spec,
                Constant(1.0), B1, n_paths=4, seed=0, dt=0.1,
            )

    def test_argument_validation(self):
        spec = linear_spec(1.0, 1.0)
        at_zero = linear_spec(1.0, 1.0, x0=0.0)
        with pytest.raises(ValueError, match="x0"):
            estimate_exponent(at_zero, [Constant(1.0)], B, horizon=1.0,
                              dt=0.1, n_paths=2, seed=0)
        with pytest.raises(ValueError, match="x0"):
            adversarial_search(at_zero, enumerate_family(B, 3), B, budget=3,
                               horizon=1.0, dt=0.1, n_paths=2, seed=0)
        with pytest.raises(ScenarioError, match="n_paths must be >= 1"):
            estimate_exponent(
                spec, [Constant(1.0)], B, horizon=1.0, dt=0.1, n_paths=0,
                seed=0,
            )
        with pytest.raises(EstimationError, match="scenario"):
            estimate_exponent(spec, [], B, horizon=1.0, dt=0.1, n_paths=2,
                              seed=0)

    def test_repeating_grid_refused_everywhere(self):
        """At t0 = 1e300 every time of a 0.1-step grid rounds to t0.
        integrate refuses that grid, and so must each estimator entry
        point, before it runs and without a warning: it would otherwise
        report QV = 0, blame flagged paths, score nan or pass every
        path."""
        spec = SdeSpec(f=parse("-x"), g=parse("x"), x0=1.0, t0=1e300)
        run = dict(horizon=1.0, dt=0.1, n_paths=3, seed=0)
        calls = [
            lambda: estimate_sublinear_expectation(
                "terminal_qv", spec, [Constant(1.0)], B, **run),
            lambda: estimate_sublinear_expectation(
                "constant", spec, [Constant(1.0)], B, **run),
            lambda: estimate_exponent(spec, [Constant(1.0)], B, **run),
            lambda: adversarial_search(
                spec, enumerate_family(B, 3), B, budget=3, **run),
            lambda: martingale_bound_check(
                MartingaleCheckSpec(eta=parse("1"), k_max=1), spec,
                Constant(1.0), B, n_paths=3, seed=0, dt=0.1),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ScenarioError, match="strictly increasing"):
                    call()

    @pytest.mark.parametrize("horizon", [1.0, 0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("dt_rule", ["0", "nan", "inf", "2h", "1e-300"])
    def test_bad_run_grid_refused_everywhere(self, horizon, dt_rule):
        """A horizon or dt that no uniform grid can hold raises ScenarioError
        naming the broken rule at every entry point, before it runs and
        without a warning.  martingale_bound_check runs to its last
        checkpoint, which its spec keeps positive and finite, so it takes
        only the dt faults."""
        dt = {"0": 0.0, "nan": math.nan, "inf": math.inf, "2h": 2 * horizon,
              "1e-300": 1e-300}[dt_rule]
        message = {(1.0, "2h"): "must not exceed", (1.0, "1e-300"): "too many steps"}
        spec = linear_spec(1.0, 1.0)
        run = dict(horizon=horizon, dt=dt, n_paths=3, seed=0)
        calls = [
            lambda: estimate_sublinear_expectation(
                "terminal_qv", spec, [Constant(1.0)], B, **run),
            lambda: estimate_sublinear_expectation(
                "constant", spec, [Constant(1.0)], B, **run),
            lambda: estimate_exponent(spec, [Constant(1.0)], B, **run),
            lambda: adversarial_search(
                spec, enumerate_family(B, 3), B, budget=3, **run),
        ]
        if horizon == 1.0:
            calls.append(lambda: martingale_bound_check(
                MartingaleCheckSpec(eta=parse("1"), k_max=1), spec,
                Constant(1.0), B, n_paths=3, seed=0, dt=dt))
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ScenarioError) as err:
                    call()
            assert message.get((horizon, dt_rule), "positive and finite") in str(
                err.value)

    def test_path_count_beyond_key_refused_everywhere(self):
        """Philox keys hold 2^56 path indices: a larger n_paths raises
        ScenarioError at every entry point before any lane is sized."""
        spec = linear_spec(1.0, 1.0)
        run = dict(horizon=1.0, dt=0.1, n_paths=2**56 + 1, seed=0)
        calls = [
            lambda: estimate_sublinear_expectation(
                "terminal_qv", spec, [Constant(1.0)], B, **run),
            lambda: estimate_sublinear_expectation(
                "constant", spec, [Constant(1.0)], B, **run),
            lambda: estimate_exponent(spec, [Constant(1.0)], B, **run),
            lambda: adversarial_search(
                spec, enumerate_family(B, 3), B, budget=3, **run),
            lambda: martingale_bound_check(
                MartingaleCheckSpec(eta=parse("1"), k_max=1), spec,
                Constant(1.0), B, n_paths=2**56 + 1, seed=0, dt=0.1),
        ]
        for call in calls:
            with pytest.raises(ScenarioError, match=r"n_paths must be <= 2\^56"):
                call()

    @pytest.mark.parametrize("functional", ["terminal_qv", "constant"])
    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (dict(seed=-5), ScenarioError, r"seed must lie in \[0, 2\^64\)"),
            (dict(n_paths=0), ScenarioError, "n_paths must be >= 1"),
        ],
        ids=["seed", "n_paths"],
    )
    def test_constant_functional_obeys_run_rules(self, functional, bad, error,
                                                 message):
        """The constant functional simulates nothing, yet its run is refused
        by the rules every other functional's run obeys."""
        run = {**dict(horizon=1.0, dt=0.1, n_paths=3, seed=0), **bad}
        with pytest.raises(error, match=message):
            estimate_sublinear_expectation(
                functional, linear_spec(1.0, 1.0), [Constant(1.0)], B, **run)

    def test_g_normal_variance_from_zero(self):
        """Peng's first identity, E[B_T^2] = sigma_upper^2 T from B_0 = 0:
        dX = dB from x0 = 0 over constant rates 0.25, 0.5, 1 and T = 2.
        Nothing but a rate divides by x0, so the functionals and the
        martingale check run from 0."""
        spec = SdeSpec(f=parse("0"), g=parse("1"), x0=0.0)
        family = [Constant(0.25), Constant(0.5), Constant(1.0)]
        run = dict(horizon=2.0, dt=0.01, n_paths=4000, seed=3)
        qv = estimate_sublinear_expectation("terminal_qv", spec, family, B, **run)
        assert qv.means == (0.5, 1.0, 2.0)
        sq = estimate_sublinear_expectation(
            "terminal_abs_pow", spec, family, B, p=2.0, **run)
        assert sq.argmax_label == "constant:1"
        assert abs(sq.value - 2.0) <= 3 * sq.stderrs[2]
        const = estimate_sublinear_expectation("constant", spec, family, B, **run)
        assert const.value == 1.0 and const.argmax_label == "constant:0.25"
        rep = martingale_bound_check(
            MartingaleCheckSpec(eta=parse("1"), k_max=2), spec, Constant(1.0),
            B, n_paths=4, seed=3, dt=0.01)
        assert rep.n_flagged == 0

    def test_nan_constant_refused_by_name(self):
        with pytest.raises(ValueError, match="constant_value must not be nan"):
            estimate_sublinear_expectation(
                "constant", linear_spec(1.0, 1.0), [Constant(1.0)], B,
                horizon=1.0, dt=0.1, n_paths=3, seed=0, constant_value=math.nan)

    def test_level_count_beyond_limit_refused_everywhere(self):
        """A piecewise_random dwell giving 2^53 or more levels over the run
        raises ScenarioError naming the scenario at every entry point,
        before any level or Wiener array is sized and without a warning."""
        spec = linear_spec(1.0, 1.0)
        s = PiecewiseRandom(1e-300)
        grid = uniform_grid(0.0, 1.0, 0.1)
        run = dict(horizon=1.0, dt=0.1, n_paths=3, seed=0)
        calls = [
            lambda: integrate(spec, s, B, grid, seed=0),
            lambda: estimate_exponent(spec, [s], B, **run),
            lambda: estimate_sublinear_expectation(
                "terminal_qv", spec, [s], B, **run),
            lambda: martingale_bound_check(
                MartingaleCheckSpec(eta=parse("1"), k_max=1), spec, s, B,
                n_paths=3, seed=0, dt=0.1),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(
                    ScenarioError,
                    match="piecewise_random:dwell=1e-300: dwell too small",
                ):
                    call()

    def test_milstein_method_accepted(self):
        spec = linear_spec(1.0, 0.5)
        est = estimate_exponent(
            spec, [Constant(1.0)], B1, horizon=5.0, dt=0.01, n_paths=10,
            seed=2, method="milstein",
        )
        assert est.scenarios[0].n_flagged == 0


def _same(a, b):
    """Field-by-field equality in which NaN equals NaN."""
    return all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for x, y in zip(a, b)
    )


class TestFamilyEqualsSingles:
    """One lane-engine run over a family must give each scenario exactly
    what a run of that scenario alone gives, including with flagged lanes:
    dX = 2X dt + 2X dB explodes at the band floor v = 0.0625 (every path),
    partly under the floor-then-top schedule and the random levels, and
    not at all elsewhere.  The escaping drift 0.025 exp(X^2) - X flags
    some paths at the upper rates, each after a step whose inf - inf sets
    numpy's invalid flag, so the step re-checks and recomputes its lanes.
    dX = -X dt + X dB flags no path, so its family run never leaves the
    unmasked path."""

    SPEC = SdeSpec(f=parse("2*x"), g=parse("2*x"), x0=1.0)
    ESCAPING = SdeSpec(
        f=parse("0.05*exp(x^2) - 0.025*exp(x^2) - x"), g=parse("x"), x0=1.0
    )
    BAND = AmbiguityBounds(0.25, 1.0)
    FAMILY = (
        Constant(0.0625),
        BangBangInTime((14.0, 25.0), (0.0625, 1.0)),
        BangBangInX(1e4, 0.0625, 1.0),
        FeedbackSignVxx(parse("x^2+x^4")),
        PiecewiseRandom(2.0),
        Constant(1.0),
    )
    RUN = dict(horizon=25.0, dt=0.01, n_paths=8, seed=0)

    @pytest.fixture(autouse=True, params=[4000, 16], ids=["one_call", "pairs"])
    def engine_sizes(self, request, monkeypatch):
        # 23-step normal blocks, which do not divide the 2500 steps; with 16
        # lanes per call the 8-path family runs as three pairs of scenarios;
        # 5-lane draw stages, which divide neither 16 nor the 48 lanes of
        # one call, so a stage edge falls inside a scenario
        monkeypatch.setattr(integrator, "_BLOCK_STEPS", 23)
        monkeypatch.setattr(integrator, "_STAGE_LANES", 5)
        monkeypatch.setattr(estimator, "_MAX_LANES", request.param)

    def check_exponent(self, spec, method, run):
        est = estimate_exponent(spec, self.FAMILY, self.BAND, method=method, **run)
        for s, got in zip(self.FAMILY, est.scenarios):
            if got.n_flagged == got.n_paths:
                with pytest.raises(EstimationError, match="flagged"):
                    estimate_exponent(spec, [s], self.BAND, method=method, **run)
                assert math.isnan(got.mean) and math.isnan(got.slope)
                continue
            alone = estimate_exponent(
                spec, [s], self.BAND, method=method, **run
            ).scenarios[0]
            assert _same(dataclasses.astuple(got), dataclasses.astuple(alone))
        return [s.n_flagged for s in est.scenarios]

    @pytest.mark.parametrize("method", ["euler", "milstein"])
    @pytest.mark.parametrize("sde", ["overflowing", "escaping", "stable"])
    def test_exponent(self, method, sde):
        spec = {"overflowing": self.SPEC, "escaping": self.ESCAPING,
                "stable": linear_spec(1.0, 1.0)}[sde]
        flagged = self.check_exponent(spec, method, self.RUN)
        if sde == "overflowing":
            assert flagged[0] == 8 and 0 < flagged[1] < 8 and flagged[-1] == 0
        elif sde == "escaping":
            assert flagged[0] == 0 and 0 < flagged[-1] < 8
        else:
            assert not any(flagged)

    def test_exponent_long_rows(self):
        """With 136 paths the per-scenario means sum rows longer than 128,
        where numpy switches to pairwise summation.  Over 16 time units
        the band floor flags paths, so the family run is masked, while
        v = 1 flags none and runs unmasked alone; the two must agree."""
        flagged = self.check_exponent(
            self.SPEC, "euler", dict(self.RUN, horizon=16.0, n_paths=136)
        )
        assert flagged[0] > 0 and flagged[-1] == 0

    @pytest.mark.parametrize("method", ["euler", "milstein"])
    @pytest.mark.parametrize("functional", ["running_max_abs", "terminal_b_plus_qv"])
    def test_sublinear(self, method, functional):
        est = estimate_sublinear_expectation(
            functional, self.SPEC, self.FAMILY, self.BAND, method=method,
            **self.RUN,
        )
        for q, s in enumerate(self.FAMILY):
            if est.n_flagged[q] == self.RUN["n_paths"]:
                assert math.isnan(est.means[q])
                continue
            alone = estimate_sublinear_expectation(
                functional, self.SPEC, [s], self.BAND, method=method,
                **self.RUN,
            )
            assert _same(
                (est.means[q], est.stderrs[q], est.n_flagged[q]),
                (alone.means[0], alone.stderrs[0], alone.n_flagged[0]),
            )


class TestSublinearExpectation:
    def test_quadratic_variation_is_exact_on_collapsed_band(self):
        spec = linear_spec(1.0, 0.5)
        est = estimate_sublinear_expectation(
            "terminal_qv", spec, [Constant(1.0)], B1,
            horizon=10.0, dt=0.01, n_paths=10, seed=1,
        )
        assert est.value == 10.0

    def test_constant_preserved_exactly(self):
        spec = linear_spec(1.0, 0.5)
        est = estimate_sublinear_expectation(
            "constant", spec, [Constant(0.25), Constant(1.0)], B,
            horizon=1.0, dt=0.1, n_paths=5, seed=1, constant_value=3.7,
        )
        assert est.value == 3.7
        assert est.means == (3.7, 3.7)

    def test_monotone_functionals(self):
        # running max dominates the terminal value pathwise
        spec = linear_spec(1.0, 1.0)
        kwargs = dict(horizon=5.0, dt=0.01, n_paths=50, seed=7)
        terminal = estimate_sublinear_expectation(
            "terminal_abs_pow", spec, enumerate_family(B, 1), B, p=1.0,
            **kwargs,
        )
        runmax = estimate_sublinear_expectation(
            "running_max_abs", spec, enumerate_family(B, 1), B, **kwargs
        )
        assert runmax.value >= terminal.value

    def test_subadditive_across_functionals(self):
        spec = linear_spec(1.0, 1.0)
        kwargs = dict(horizon=5.0, dt=0.01, n_paths=50, seed=7)
        fam = enumerate_family(B, 1)
        bq = estimate_sublinear_expectation(
            "terminal_b_plus_qv", spec, fam, B, **kwargs
        )
        b_only = estimate_sublinear_expectation("terminal_b", spec, fam, B,
                                                **kwargs)
        qv_only = estimate_sublinear_expectation("terminal_qv", spec, fam, B,
                                                 **kwargs)
        assert bq.value <= b_only.value + qv_only.value + 1e-9

    def test_argmax_label_reported(self):
        spec = linear_spec(1.0, 1.0)
        est = estimate_sublinear_expectation(
            "terminal_qv", spec, [Constant(0.25), Constant(1.0)], B,
            horizon=5.0, dt=0.01, n_paths=5, seed=1,
        )
        assert est.argmax_label == "constant:1"

    def test_unknown_functional(self):
        with pytest.raises(EstimationError, match="functional"):
            estimate_sublinear_expectation(
                "terminal_cube", linear_spec(1.0, 1.0), [Constant(1.0)], B,
                horizon=1.0, dt=0.1, n_paths=2, seed=0,
            )


class TestAdversarialSearch:
    def test_budget_validation(self):
        for limits, message in ((dict(budget=0), "budget must be >= 1"),
                                (dict(budget=3, max_switches=5),
                                 "max_switches must be in 1..4")):
            with pytest.raises(ValueError, match=message):
                adversarial_search(
                    linear_spec(1.0, 1.0), enumerate_family(B, 3), B, **limits,
                    horizon=5.0, dt=0.1, n_paths=5, seed=0,
                )

    def test_finds_band_floor_for_stable_linear(self):
        """For dX = -X dt + X dB the rate -1 - v/2 is maximized at the
        band floor; the family pass alone must already land there."""
        res = adversarial_search(
            linear_spec(1.0, 1.0), enumerate_family(B, 2), B, budget=20,
            horizon=20.0, dt=0.01, n_paths=50, seed=4,
        )
        assert res.baseline_complete
        assert res.scenario == Constant(B.v_lower)
        assert res.exponent == pytest.approx(-1.125, abs=0.08)

    def test_budget_caps_evaluations(self):
        res = adversarial_search(
            linear_spec(1.0, 1.0), enumerate_family(B, 3), B, budget=2,
            horizon=5.0, dt=0.1, n_paths=10, seed=4,
        )
        assert res.evaluations == 2
        assert not res.baseline_complete
        assert res.family_size > 2

    def test_descent_improves_on_time_varying_target(self):
        """Drift that flips sign at t = 7: the adversary should prefer a
        switching schedule over any constant rate, and the descent result
        must never fall below the family baseline."""
        spec = SdeSpec(f=parse("-x*sign(7 - t)"), g=parse("x"), x0=1.0)
        base = adversarial_search(
            spec, enumerate_family(B, 2), B, budget=7, horizon=20.0, dt=0.02,
            n_paths=30, seed=8,
        )
        more = adversarial_search(
            spec, enumerate_family(B, 2), B, budget=30, horizon=20.0, dt=0.02,
            n_paths=30, seed=8, max_switches=2,
        )
        assert base.baseline_complete
        assert more.exponent >= base.exponent
        assert isinstance(more.scenario, (Constant, BangBangInTime))


# (max_switches, budget) -> (evaluations, repr(exponent), scenario) of the
# search on the sign-flip drift below.  The richness-2 family has 5
# members, so budget 3 stops inside phase one, 5 right after it, 6 after
# the first band-edge start and 7 after both; 12, 20 and 40 stop in the
# descent or let it converge.
SEARCH_PINS = {
    (1, 3): (3, "0.3322060690631883", Constant(0.25)),
    (1, 5): (5, "0.3322060690631883", Constant(0.25)),
    (1, 6): (6, "0.3322060690631883", Constant(0.25)),
    (1, 7): (7, "0.3322060690631883", Constant(0.25)),
    (1, 12): (9, "0.3322060690631883", Constant(0.25)),
    (1, 20): (9, "0.3322060690631883", Constant(0.25)),
    (1, 40): (9, "0.3322060690631883", Constant(0.25)),
    (2, 3): (3, "0.3322060690631883", Constant(0.25)),
    (2, 5): (5, "0.3322060690631883", Constant(0.25)),
    (2, 6): (6, "0.33911924636681917", BangBangInTime(
        (4.666666666666667, 9.333333333333334), (1.0, 0.25))),
    (2, 7): (7, "0.33911924636681917", BangBangInTime(
        (4.666666666666667, 9.333333333333334), (1.0, 0.25))),
    (2, 12): (12, "0.35032587382249886", BangBangInTime(
        (7.0, 9.333333333333334), (1.0, 0.25))),
    (2, 20): (17, "0.35032587382249886", BangBangInTime(
        (7.0, 9.333333333333334), (1.0, 0.25))),
    (2, 40): (17, "0.35032587382249886", BangBangInTime(
        (7.0, 9.333333333333334), (1.0, 0.25))),
    (3, 3): (3, "0.3322060690631883", Constant(0.25)),
    (3, 5): (5, "0.3322060690631883", Constant(0.25)),
    (3, 6): (6, "0.3322060690631883", Constant(0.25)),
    (3, 7): (7, "0.35029725753679275", BangBangInTime(
        (3.5, 7.0, 10.5), (0.25, 1.0, 0.25))),
    (3, 12): (12, "0.362229335909549", BangBangInTime(
        (5.25, 7.875, 10.5), (0.25, 1.0, 0.25))),
    (3, 20): (20, "0.3769610221306149", BangBangInTime(
        (5.90625, 7.875, 10.5), (0.25, 1.0, 0.25))),
    (3, 40): (33, "0.3769610221306149", BangBangInTime(
        (5.90625, 7.875, 10.5), (0.25, 1.0, 0.25))),
}


@pytest.mark.parametrize(
    "max_switches,budget", sorted(SEARCH_PINS),
    ids=[f"m{m}-budget{n}" for m, n in sorted(SEARCH_PINS)],
)
def test_search_pinned(max_switches, budget):
    """The search evaluates the same candidates in the same order at every
    budget: drift -x sign(7 - t) with g = x + 1 rewards a band-edge
    schedule over every constant once max_switches >= 2."""
    spec = SdeSpec(f=parse("-x*sign(7 - t)"), g=parse("x + 1"), x0=1.0)
    res = adversarial_search(
        spec, enumerate_family(B, 2), B, budget=budget, horizon=14.0, dt=0.05,
        n_paths=6, seed=8, max_switches=max_switches,
    )
    got = (res.evaluations, repr(res.exponent), res.scenario)
    assert got == SEARCH_PINS[max_switches, budget]


def test_search_beats_the_family_out_of_sample():
    """The schedule the search finds at m3-budget20 is no artifact of its 6
    in-sample paths: on 400 fresh paths (seed 101) its mean rate exceeds
    every member of the richness-2 family by more than 3 combined standard
    errors, so the search finds what the family lacks."""
    spec = SdeSpec(f=parse("-x*sign(7 - t)"), g=parse("x + 1"), x0=1.0)
    found = adversarial_search(
        spec, enumerate_family(B, 2), B, budget=20, horizon=14.0, dt=0.05,
        n_paths=6, seed=8, max_switches=3,
    ).scenario
    est = estimate_exponent(
        spec, [found, *enumerate_family(B, 2)], B, horizon=14.0, dt=0.05,
        n_paths=400, seed=101,
    )
    best, *family = est.scenarios
    assert est.argmax_label == best.label == found.label()
    for s in family:
        assert best.mean - s.mean > 3 * math.hypot(best.stderr, s.stderr), s.label


def test_search_switches_inside_its_run():
    """The switch times are clock times, and the run covers [t0, t0 +
    horizon]: the m3-budget20 search shifted to t0 = 100, drift and all,
    spends the same evaluations and finds the same schedule 100 later."""
    found = []
    for t0 in (0.0, 100.0):
        spec = SdeSpec(f=parse(f"-x*sign(7 - (t - {t0}))"), g=parse("x + 1"),
                       x0=1.0, t0=t0)
        found.append(adversarial_search(
            spec, enumerate_family(B, 2), B, budget=20, horizon=14.0, dt=0.05,
            n_paths=6, seed=8, max_switches=3,
        ))
    at_zero, later = found
    assert later.evaluations == at_zero.evaluations == 20
    assert later.scenario.levels == at_zero.scenario.levels
    assert later.scenario.times == pytest.approx(
        [t + 100.0 for t in at_zero.scenario.times], abs=1e-9)
    assert later.exponent == pytest.approx(at_zero.exponent, abs=1e-9)


class TestMartingaleBound:
    SPEC = linear_spec(1.0, 0.5)

    def test_zero_integrand_trivially_satisfied(self):
        ms = MartingaleCheckSpec(eta=parse("0"), k_max=5)
        rep = martingale_bound_check(
            ms, self.SPEC, Constant(1.0), B, n_paths=10, seed=5, dt=0.01
        )
        assert rep.fraction_satisfied == 1.0
        assert np.all(rep.k0 == 1)
        assert np.all(rep.violation_fraction == 0.0)

    def test_unit_integrand_defaults(self):
        ms = MartingaleCheckSpec(eta=parse("1"), k_max=20)
        rep = martingale_bound_check(
            ms, self.SPEC, Constant(1.0), B, n_paths=400, seed=5, dt=0.01
        )
        assert rep.fraction_satisfied >= 0.99
        # union-bound prediction: violation probability at k is <= k^-theta
        k = np.arange(1, 21)
        se = np.sqrt(np.minimum(1.0, 1.0 / k**2) / 400)
        assert np.all(rep.violation_fraction[1:] <= (1.0 / k**2 + 5 * se)[1:])

    def test_state_dependent_integrand(self):
        ms = MartingaleCheckSpec(eta=parse("x"), k_max=10)
        rep = martingale_bound_check(
            ms, self.SPEC, Constant(0.25), B, n_paths=100, seed=6, dt=0.01
        )
        assert rep.fraction_satisfied >= 0.95
        assert rep.n_flagged == 0

    def test_integrand_domain_violation_raises(self):
        """eta = log(x) on the negative states of dX = -X dt + X dB from
        x0 = -1 is refused by name, not read as a failed bound."""
        spec = SdeSpec(f=parse("-x"), g=parse("x"), x0=-1.0)
        with pytest.raises(EvalDomainError, match="log of a non-positive value"):
            martingale_bound_check(
                MartingaleCheckSpec(eta=parse("log(x)")), spec, Constant(1.0), B,
                n_paths=4, seed=0, dt=0.01,
            )

    def test_overflowing_integrand_fails_the_bound(self):
        """eta = exp(x^2) overflows at x = 27 without leaving its domain:
        N and Q turn non-finite and no path satisfies the bound."""
        spec = SdeSpec(f=parse("0"), g=parse("0.01"), x0=27.0)
        rep = martingale_bound_check(
            MartingaleCheckSpec(eta=parse("exp(x^2)"), k_max=2), spec,
            Constant(1.0), B, n_paths=4, seed=0, dt=0.01,
        )
        assert rep.fraction_satisfied == 0.0 and rep.n_flagged == 0
        assert np.all(rep.violation_fraction == 1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="theta"):
            MartingaleCheckSpec(eta=parse("1"), theta=1.0)
        with pytest.raises(ValueError, match="gamma"):
            MartingaleCheckSpec(eta=parse("1"), k_max=2, gamma=(0.0, 1.0))
        with pytest.raises(ValueError, match="tau"):
            MartingaleCheckSpec(eta=parse("1"), k_max=2, tau=(2.0, 1.0))
        with pytest.raises(ValueError, match="tau needs k_max entries"):
            MartingaleCheckSpec(eta=parse("1"), k_max=2, tau=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="growth"):
            MartingaleCheckSpec(eta=parse("1"), growth="log")
        with pytest.raises(ValueError, match="k_max"):
            MartingaleCheckSpec(eta=parse("1"), k_max=0)
        inf, nan = math.inf, math.nan
        with pytest.raises(ValueError, match="theta"):
            MartingaleCheckSpec(eta=parse("1"), theta=inf)
        with pytest.raises(ValueError, match="gamma"):
            MartingaleCheckSpec(eta=parse("1"), k_max=2, gamma=(1.0, nan))
        with pytest.raises(ValueError, match="gamma"):
            MartingaleCheckSpec(eta=parse("1"), k_max=2, gamma=(1.0, inf))
        with pytest.raises(ValueError, match="tau"):
            MartingaleCheckSpec(eta=parse("1"), k_max=2, tau=(1.0, inf))
        with pytest.raises(ValueError, match="tau"):
            MartingaleCheckSpec(eta=parse("1"), k_max=3, tau=(1.0, nan, 3.0))

    def test_checkpoints_are_elapsed_times(self):
        """tau_k counts from t0: an autonomous SDE with a constant integrand
        gives the same report whatever its start time."""
        ms = MartingaleCheckSpec(eta=parse("1"), k_max=5)
        reports = [
            martingale_bound_check(
                ms, SdeSpec(f=parse("-x"), g=parse("x"), x0=1.0, t0=t0),
                Constant(1.0), B, n_paths=40, seed=3, dt=0.5,
            )
            for t0 in (0.0, 3.0)
        ]
        for field in dataclasses.fields(reports[0]):
            a, b = (getattr(r, field.name) for r in reports)
            np.testing.assert_array_equal(a, b, err_msg=field.name)

    def test_custom_tau_matching_the_default(self):
        """Checkpoints given as tau = (1, 2, 3) run the custom branch and
        report exactly what the default tau_k = k does."""
        reports = [
            martingale_bound_check(
                MartingaleCheckSpec(eta=parse("1"), k_max=3, tau=tau), self.SPEC,
                Constant(1.0), B, n_paths=20, seed=4, dt=0.1,
            )
            for tau in (None, (1.0, 2.0, 3.0))
        ]
        for field in dataclasses.fields(reports[0]):
            a, b = (getattr(r, field.name) for r in reports)
            np.testing.assert_array_equal(a, b, err_msg=field.name)

    def test_custom_gamma_and_growth(self):
        ms = MartingaleCheckSpec(
            eta=parse("1"), k_max=4, gamma=(2.0, 2.0, 1.0, 1.0), growth="k^2"
        )
        rep = martingale_bound_check(
            ms, self.SPEC, Constant(1.0), B, n_paths=50, seed=7, dt=0.01
        )
        assert rep.bounds.shape == (4,)
        # theta/gamma * log g(k): k=3 -> 2*log(9)
        assert rep.bounds[2] == pytest.approx(2 * math.log(9.0))
        assert rep.fraction_satisfied >= 0.9


def test_family_setup_lives_in_one_place():
    """Every entry point is one run of the family it is given: estimator.py
    calls no enumerate_family, lists the family and calls uniform_grid
    only in the prologue _run_grid, and calls _run_lanes only in the
    group loop _scenario_rows.  Only a rate divides
    by log|x0|, so in the package check_x0 is named only by
    _ExponentObserver and by config.build_run's exit-2 pre-check."""
    from gsde import config

    called = ("uniform_grid", "_run_lanes", "list", "enumerate_family")
    callers = {name: [] for name in (*called, "check_x0")}
    for module in (estimator, config):
        name = module.__name__.rsplit(".", 1)[1]
        for fn in ast.parse(Path(module.__file__).read_text()).body:
            where = f"{name}.{getattr(fn, 'name', None)}"
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id == "check_x0":
                    callers["check_x0"].append(where)
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in called
                        and name == "estimator"):
                    callers[node.func.id].append(where)
    assert callers == {
        "uniform_grid": ["estimator._run_grid"],
        "_run_lanes": ["estimator._scenario_rows"],
        "list": ["estimator._run_grid"],
        "enumerate_family": [],
        "check_x0": ["estimator._ExponentObserver", "config.build_run"],
    }
