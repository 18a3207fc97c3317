"""Certificate machinery: operators, templates T33..T38, validation,
report serialization.

The granted cases below are hand-constructed so every hypothesis reduces
to an exact algebraic identity or a wide-margin inequality; the expected
bounds are worked out by hand from the template formulas.
"""

import csv
import types
from dataclasses import fields, replace

import numpy as np
import pytest

from gsde import lyapunov
from gsde.expr import Binary, Const, EvalDomainError, Var, parse, to_source
from gsde.gcalc import AmbiguityBounds, g_lower, g_upper
from gsde.integrator import SdeSpec
from gsde.lyapunov import (
    CertificateError,
    CertificateSpec,
    CheckGrid,
    LyapunovFn,
    SampleHolder,
    check_certificate,
    sample_operators,
    validate_certificate,
    verdict_line,
    write_certificate_csv,
)
from gsde.scenario import ScenarioError

B1 = AmbiguityBounds(1.0, 1.0)
B = AmbiguityBounds(0.5, 1.0)
GRID = CheckGrid.default()
V2 = LyapunovFn.from_expr(parse("x^2"))


def linear_spec(alpha, beta):
    return SdeSpec(f=parse(f"-{alpha}*x"), g=parse(f"{beta}*x"), x0=1.0)


class TestCheckGrid:
    def test_default_shape(self):
        assert GRID.xs.size == 400
        assert GRID.ts.size == 200
        assert GRID.ts[0] == 0.0
        assert GRID.ts[-1] == 20.0
        assert np.min(np.abs(GRID.xs)) == pytest.approx(1e-3)
        assert np.max(np.abs(GRID.xs)) == pytest.approx(10.0)
        # symmetric, excludes the origin
        assert np.all(GRID.xs != 0)
        np.testing.assert_allclose(GRID.xs, -GRID.xs[::-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckGrid(xs=np.array([0.0, 1.0]), ts=np.array([0.0]))
        with pytest.raises(ValueError):
            CheckGrid(xs=np.array([]), ts=np.array([0.0]))
        with pytest.raises(ValueError):
            CheckGrid.default(x_min=0.0)

    @pytest.mark.parametrize(
        "ts, message",
        [
            ([0.0], "at least 2 points"),
            ([0.0, 1.0, 1.0], "strictly increasing"),
            ([1.0, 0.0], "strictly increasing"),
            ([0.0, np.inf], "finite"),
        ],
        ids=["one_point", "repeating", "decreasing", "infinite"],
    )
    def test_times_obey_the_one_time_grid_rule(self, ts, message):
        """The check grid's times obey scenario's stepping-grid rule."""
        with pytest.raises(ScenarioError, match=message):
            CheckGrid(xs=np.array([-1.0, 1.0]), ts=np.array(ts))

    def test_times_collapsing_at_large_t0_refused(self):
        """200 times spanning 20 from t0 = 1e300 round to one instant."""
        with pytest.raises(ScenarioError, match="strictly increasing"):
            CheckGrid.default(t0=1e300)


class TestExtrapolation:
    def test_zero_integral_passes_with_any_window(self):
        """An identically-zero weight has growth rate -inf, which needs no
        fit, so a window too small to fit still passes."""
        h = lyapunov._loggrowth_cap("w", np.zeros(2), np.array([0.0, 1.0]), 0.0)
        assert h.passed and h.violation == -np.inf and h.horizon_limited

    def test_empty_window_is_not_a_zero_integral(self):
        """With no positive grid time the window is empty: a positive
        weight's integral is refused for want of a fit, not passed as
        identically zero."""
        ts = np.array([-3.0, -2.0, -1.0])
        with pytest.raises(CertificateError, match="0 grid time"):
            lyapunov._loggrowth_cap("w", np.ones(3), ts, 0.0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_cesaro_window_smaller_than_fit_refused(self, n):
        ts = np.linspace(0.0, 1.0, n + 1)
        with pytest.raises(CertificateError, match=f"{n} grid time"):
            lyapunov._cesaro_lower("avg", np.ones_like(ts), ts, 1.0)


class TestOperators:
    def test_quadratic_energy_positive_curvature(self):
        """V = x^2: worst drift charges V_xx = 2 at the band top."""
        alpha, beta = 1.5, 0.7
        spec = linear_spec(alpha, beta)
        x = np.array([-2.0, 0.5, 3.0])
        t = np.zeros(3)
        expected_hi = (-2 * alpha + beta**2 * B.v_upper) * x * x
        expected_lo = (-2 * alpha + beta**2 * B.v_lower) * x * x
        ops = sample_operators(V2, spec, B, x, t)
        np.testing.assert_allclose(ops.drift(g_upper), expected_hi, rtol=1e-12)
        np.testing.assert_allclose(ops.drift(g_lower), expected_lo, rtol=1e-12)

    def test_negative_curvature_charges_band_floor(self):
        lyap = LyapunovFn.from_expr(parse("0 - x^2"))
        spec = linear_spec(1.0, 1.0)
        x = np.array([1.0, -3.0])
        t = np.zeros(2)
        # V_xx = -2: g_upper(-2) = -v_lower
        expected = 2.0 * x * x - B.v_lower * x * x
        np.testing.assert_allclose(
            sample_operators(lyap, spec, B, x, t).drift(g_upper),
            expected,
            rtol=1e-12,
        )

    def test_noise_operator(self):
        spec = linear_spec(1.0, 0.7)
        x = np.array([0.5, 2.0])
        t = np.zeros(2)
        np.testing.assert_allclose(
            sample_operators(V2, spec, B, x, t).H, 4 * 0.49 * x**4, rtol=1e-12
        )

    def test_sandwich_over_band(self):
        """L_lower <= V_t + f V_x + (v/2) g^2 V_xx <= L for every v in the
        band, including mixed-sign curvature."""
        lyap = LyapunovFn.from_expr(parse("sin(x) + 2"))
        spec = SdeSpec(f=parse("-x + sin(t)"), g=parse("x + 0.3"), x0=1.0)
        xs = np.linspace(-3, 3, 41)
        ts = np.linspace(0, 5, 7)
        XX, TT = np.meshgrid(xs, ts, indexing="ij")
        ops = sample_operators(lyap, spec, B, XX, TT)
        lo = ops.drift(g_lower)
        hi = ops.drift(g_upper)
        from gsde.expr import evaluate

        vt = evaluate(lyap.V_t, XX, TT)
        fv = evaluate(spec.f, XX, TT)
        vx = evaluate(lyap.V_x, XX, TT)
        vxx = evaluate(lyap.V_xx, XX, TT)
        gv = evaluate(spec.g, XX, TT)
        for v in np.linspace(B.v_lower, B.v_upper, 9):
            mid = vt + fv * vx + 0.5 * v * gv * gv * vxx
            assert np.all(lo <= mid + 1e-12)
            assert np.all(mid <= hi + 1e-12)

    def test_collapsed_band_operators_coincide(self):
        spec = linear_spec(1.0, 1.0)
        x = np.linspace(-5, 5, 21)
        t = np.zeros(21)
        ops = sample_operators(V2, spec, B1, x, t)
        np.testing.assert_array_equal(ops.drift(g_upper), ops.drift(g_lower))

    def test_each_input_evaluated_once(self, evaluations):
        """One checked evaluation per V, g, V_t, f, V_x, V_xx, in that
        order, plus one per time weight."""
        spec = linear_spec(1.0, 1.0)
        check_certificate(V2, spec, B1, CertificateSpec("T33", 2.0), GRID)
        order = [V2.V, spec.g, V2.V_t, spec.f, V2.V_x, V2.V_xx]
        assert [id(e) for e in evaluations] == [id(e) for e in order]
        evaluations.clear()
        check_certificate(V2, TestT38.SPEC, B, TestT38.CERT, GRID)
        assert len(evaluations) == 7
        assert evaluations[-1] is TestT38.CERT.phi


class TestHeldSample:
    """check_certificate reuses the operator sample of its holder's last
    check when V, its partials, f, g, the band and the grid are bit-equal;
    a check without a holder samples every time."""

    SPEC = linear_spec(1.0, 1.0)
    INPUTS = (V2.V, V2.V_t, V2.V_x, V2.V_xx, SPEC.f, SPEC.g)
    RHOS = (2.0, 3.0, 3.5, 4.0, 4.5, 5.0)

    def test_certificate_sweep_samples_once(self, evaluations):
        held = SampleHolder()
        certs = [replace(TestT34.CERT, rho=rho) for rho in self.RHOS]
        reports = [check_certificate(V2, self.SPEC, B, c, GRID, held) for c in certs]
        assert [r.granted for r in reports] == [True] * 4 + [False] * 2
        assert [sum(c is e for c in evaluations) for e in self.INPUTS] == [1] * 6
        # and each report is the one a fresh sample gives
        for c, r in zip(certs, reports):
            assert check_certificate(V2, self.SPEC, B, c, GRID) == r

    def test_checks_without_a_holder_sample_every_time(self, evaluations):
        cert = CertificateSpec("T33", 2.0)
        reports = [check_certificate(V2, self.SPEC, B, cert, GRID) for _ in range(2)]
        assert reports[0] == reports[1]
        assert [sum(c is e for c in evaluations) for e in self.INPUTS] == [2] * 6

    def test_drift_sweep_evaluates_what_f_reaches(self, evaluations):
        """A new f re-evaluates V_t, f and V_x, the inputs of V_t + f V_x,
        and keeps the held V, H, g^2 and V_xx."""
        cert = CertificateSpec("T33", 2.0)
        held = SampleHolder()
        specs = [linear_spec(a, 1.0) for a in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)]
        for spec in specs:
            check_certificate(V2, spec, B, cert, GRID, held)
        assert len(evaluations) == 6 + 5 * 3 == 21
        assert evaluations[6:] == [e for spec in specs[1:]
                                   for e in (V2.V_t, spec.f, V2.V_x)]
        # and each report is the one a fresh sample gives
        for spec in specs:
            assert (check_certificate(V2, spec, B, cert, GRID, held)
                    == check_certificate(V2, spec, B, cert, GRID))

    def test_held_arrays_are_read_only(self):
        lyap = LyapunovFn.from_expr(parse("(1+exp(-t))*x^2+x^4"))
        spec = SdeSpec(f=parse("-x"), g=parse("exp(-t)*x"), x0=1.0)
        grid = CheckGrid.default()
        held = SampleHolder()
        check_certificate(lyap, spec, B, CertificateSpec("T33", 2.0), grid, held)
        m = held.last[1]
        arrays = {f.name: getattr(m, f.name) for f in fields(m) if f.name != "b"}
        assert all(a.shape == (400, 200) for a in arrays.values())
        for a in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0
        grid.xs[0] = -20.0  # the caller's grid is its own
        assert m.x[0, 0] == -10.0

    def test_failed_sampling_holds_nothing(self, evaluations):
        held = SampleHolder()
        check_certificate(V2, self.SPEC, B, CertificateSpec("T33", 2.0), GRID, held)
        lyap = LyapunovFn.from_expr(parse("log(x)*x^2"))
        evaluations.clear()
        for _ in range(2):
            with pytest.raises(EvalDomainError):
                check_certificate(lyap, self.SPEC, B, CertificateSpec("T33", 2.0),
                                  GRID, held)
            assert held.last is None
        assert evaluations == [lyap.V, lyap.V]

    @pytest.mark.parametrize(
        "f1, f2",
        [
            # equal as trees, since 0.0 == -0.0, but not as source text
            (parse("0*x"), parse("-0*x")),
            # equal as source text (1.0/x^3.0), but not as trees
            (Binary("pow", Var("x"), Const(-3.0)), parse("1/x^3")),
        ],
        ids=["signed_zero", "negative_power"],
    )
    def test_lookalike_drifts_do_not_share_a_sample(self, evaluations, f1, f2):
        assert f1 == f2 or to_source(f1) == to_source(f2)
        specs = [SdeSpec(f=f, g=parse("x"), x0=1.0) for f in (f1, f2)]
        held = SampleHolder()
        for spec in specs:
            check_certificate(V2, spec, B, CertificateSpec("T33", 2.0), GRID, held)
        assert len(evaluations) == 6 + 3 == 9
        assert evaluations[6:] == [V2.V_t, specs[1].f, V2.V_x]
        assert [sum(c is spec.f for c in evaluations) for spec in specs] == [1, 1]


def _pointwise_reference(m, name, lhs, rhs):
    """_pointwise as one expression with six grid-size temporaries."""
    lhs = np.broadcast_to(np.asarray(lhs, dtype=float), m.x.shape)
    rhs = np.broadcast_to(np.asarray(rhs, dtype=float), m.x.shape)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    rel = (lhs - rhs) / scale
    k = int(np.argmax(rel))
    worst = float(rel.flat[k])
    return lyapunov.HypothesisVerdict(
        name, worst <= lyapunov.REL_SLACK, worst,
        float(m.x.flat[k]), float(m.t.flat[k]),
    )


@pytest.mark.parametrize("block", [1, 5, 10, 12, lyapunov._BLOCK_POINTS])
def test_pointwise_matches_reference_formula(monkeypatch, block):
    """The blocked _pointwise returns the verdict of the plain formula on
    full arrays, broadcast columns, rows and scalars, with nan, +-inf,
    signed zeros and ties among the values; where the formula's worst
    value is nan (a side is not finite), it refuses at that point.  Small
    blocks put ties, signed zeros and the first nan across block edges."""
    monkeypatch.setattr(lyapunov, "_BLOCK_POINTS", block)
    rng = np.random.default_rng(7)
    x, t = np.broadcast_arrays(np.linspace(-3, 3, 7)[:, None],
                               np.linspace(0, 4, 5)[None, :])
    m = types.SimpleNamespace(x=x, t=t)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e300])

    def operand(shape):
        vals = rng.normal(scale=rng.choice([1e-3, 1.0, 1e6]), size=shape)
        hit = rng.random(shape) < 0.2
        vals[hit] = rng.choice(specials, size=int(hit.sum()))
        return vals

    shapes = [(7, 5), (7, 1), (1, 5), ()]
    checked = 0
    with np.errstate(all="ignore"):
        for _ in range(40):
            for ls in shapes:
                for rs in shapes:
                    lhs = operand(ls)
                    rhs = lhs.copy() if ls == rs and rng.random() < 0.3 else operand(rs)
                    want = _pointwise_reference(m, "h", lhs, rhs)
                    if np.isnan(want.violation):
                        at = f"at x={want.worst_x:.6g}, t={want.worst_t:.6g}$"
                        with pytest.raises(CertificateError, match=at):
                            lyapunov._pointwise(m, "h", lhs, rhs)
                    else:
                        got = lyapunov._pointwise(m, "h", lhs, rhs)
                        assert repr(got) == repr(want)
                    checked += 1
    assert checked == 40 * 16


# The six templates at a granted and a withheld value, as the certify
# benchmark sweeps them: (V, f, g, band, granted cert, withheld cert).
_T34 = CertificateSpec("T34", 2.0, lam=-1.0, rho=4.0, kappa=1.0, phi=parse("1"))
_T35 = CertificateSpec("T35", 2.0, lam=1.0, nu_coeffs=(400.0, 1.0))
_T36 = CertificateSpec("T36", 2.0, lam=1.0, eta=1.0, q=1.0, beta_exp=0.0,
                       phi=parse("20050"))
_T37 = CertificateSpec("T37", 2.0, lam=2.0, eta=1.0, q=1.5, beta_exp=0.0,
                       phi1=parse("40100*exp(0.5*t)"), phi2=parse("0"))
_T38 = CertificateSpec("T38", 2.0, lam=2.0625, rho=1.0, kappa=1.0, phi=parse("1"))
TEMPLATE_CASES = {
    "T33": ("(1+exp(-t))*x^2+x^4", "-0.6*x-x^3", "x", B,
            CertificateSpec("T33", 2.0), CertificateSpec("T33", 2.0, lam=0.7)),
    "T34": ("x^2", "-x", "x", B, _T34, replace(_T34, rho=5.0)),
    "T35": ("x^2", "-x", "exp(-t)*x", B1, _T35, replace(_T35, nu_coeffs=(400.0, 0.5))),
    "T36": ("exp(t)*x^2", "-0.5*x", "exp(-t)*x", B1, _T36,
            replace(_T36, phi=parse("10000"))),
    "T37": ("exp(2*t)*x^2", "-x", "exp(-t)*x", B1, _T37,
            replace(_T37, phi1=parse("20000*exp(0.5*t)"))),
    "T38": ("x^2", "x", "0.5*x", B, _T38, replace(_T38, lam=2.5)),
}


class TestComparisonShapes:
    """Comparisons run at the broadcast shape of their sides, in blocks of
    rows, with the reports of a whole-grid comparison."""

    @pytest.mark.parametrize("theorem", sorted(TEMPLATE_CASES))
    def test_report_does_not_depend_on_the_block(self, monkeypatch, theorem):
        v, f, g, band, *certs = TEMPLATE_CASES[theorem]
        lyap = LyapunovFn.from_expr(parse(v))
        spec = SdeSpec(f=parse(f), g=parse(g), x0=1.0)
        nx, nt = GRID.xs.size, GRID.ts.size
        # one row, 7 rows of a t-only or 7 of an x-only side, 7 full rows,
        # the whole grid
        blocks = (1, 7, 7 * nt, nx * nt)
        reports = []
        for block in blocks:
            monkeypatch.setattr(lyapunov, "_BLOCK_POINTS", block)
            reports.append([repr(check_certificate(lyap, spec, band, c, GRID))
                            for c in certs])
        assert all(r == reports[-1] for r in reports)
        assert ["granted=True" in r for r in reports[-1]] == [True, False]

    def test_operators_keep_the_shape_of_their_expressions(self):
        m = sample_operators(V2, linear_spec(1.0, 1.0), B, GRID.xs[:, None],
                             GRID.ts[None, :])
        column = (GRID.xs.size, 1)
        assert np.shape(m.V) == np.shape(m.H) == column
        assert m.drift(g_upper).shape == column
        assert m.x.shape == m.t.shape == (GRID.xs.size, GRID.ts.size)


def test_nu_polynomial_matches_numpy_polyval():
    """T35's nu(t) is bit-equal to numpy's polyval."""
    rng = np.random.default_rng(11)
    ts = GRID.ts
    for degree in range(1, 7):
        for _ in range(20):
            coeffs = tuple(rng.uniform(1e-3, 1e3, size=degree + 1))
            want = np.polynomial.polynomial.polyval(ts, np.asarray(coeffs))
            assert lyapunov._polyval(coeffs, ts).tobytes() == want.tobytes()


class TestValidation:
    def test_unknown_theorem(self):
        with pytest.raises(CertificateError, match="unknown"):
            validate_certificate(CertificateSpec(theorem="T99", p=2.0), B)

    def test_missing_fields_named(self):
        with pytest.raises(CertificateError, match="rho"):
            validate_certificate(
                CertificateSpec(theorem="T34", p=2.0, lam=0.1, kappa=1.0,
                                phi=parse("1")),
                B,
            )

    def test_t34_standing_assumption(self):
        # lambda must sit strictly below v_lower * rho / 2 = 0.5
        with pytest.raises(CertificateError, match="T34 requires"):
            validate_certificate(
                CertificateSpec(theorem="T34", p=2.0, lam=0.5, rho=4.0,
                                kappa=1.0, phi=parse("1")),
                B,
            )

    def test_t38_standing_assumption(self):
        # lambda must sit strictly above v_upper * rho / 2 = 0.5
        with pytest.raises(CertificateError, match="T38 requires"):
            validate_certificate(
                CertificateSpec(theorem="T38", p=2.0, lam=0.5, rho=1.0,
                                kappa=1.0, phi=parse("1")),
                B,
            )

    def test_beta_exp_range(self):
        with pytest.raises(CertificateError, match="beta_exp"):
            validate_certificate(
                CertificateSpec(theorem="T36", p=2.0, lam=1.0, eta=1.0,
                                q=1.0, beta_exp=1.0, phi=parse("1")),
                B,
            )

    def test_nu_polynomial_constraints(self):
        with pytest.raises(CertificateError, match="degree"):
            validate_certificate(
                CertificateSpec(theorem="T35", p=2.0, lam=1.0,
                                nu_coeffs=(400.0,)),
                B,
            )
        with pytest.raises(CertificateError, match="positive"):
            validate_certificate(
                CertificateSpec(theorem="T35", p=2.0, lam=1.0,
                                nu_coeffs=(400.0, -1.0)),
                B,
            )

    def test_time_weight_must_be_time_only(self):
        with pytest.raises(CertificateError, match="t only"):
            validate_certificate(
                CertificateSpec(theorem="T34", p=2.0, lam=0.1, rho=4.0,
                                kappa=1.0, phi=parse("x")),
                B,
            )

    def test_p_and_lambda_positivity(self):
        with pytest.raises(CertificateError, match="p must be"):
            validate_certificate(CertificateSpec(theorem="T33", p=0.0), B)
        with pytest.raises(CertificateError, match="lambda"):
            validate_certificate(
                CertificateSpec(theorem="T33", p=2.0, lam=-1.0), B
            )

    # a valid parameter set per template; each case below breaks one field
    VALID = {
        "T33": dict(p=2.0, lam=1.0),
        "T34": dict(p=2.0, lam=-1.0, rho=4.0, kappa=1.0, phi=parse("1")),
        "T35": dict(p=2.0, lam=1.0, nu_coeffs=(400.0, 1.0)),
        "T36": dict(p=2.0, lam=1.0, eta=1.0, q=1.0, beta_exp=0.0,
                    phi=parse("1")),
        "T37": dict(p=2.0, lam=1.0, eta=1.0, q=1.0, beta_exp=0.0,
                    phi1=parse("1"), phi2=parse("1")),
    }
    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize(
        "theorem, field, value, message",
        [
            ("T33", "p", NAN, "p must be finite"),
            ("T33", "p", INF, "p must be finite"),
            ("T33", "p", -INF, "p must be finite"),
            ("T33", "p", 0.0, "p must be positive"),
            ("T33", "lam", NAN, "lambda must be finite"),
            ("T33", "lam", INF, "lambda must be finite"),
            ("T33", "lam", -INF, "lambda must be finite"),
            ("T33", "lam", -1.0, "lambda must be positive"),
            ("T34", "rho", NAN, "rho must be finite"),
            ("T34", "rho", INF, "rho must be finite"),
            ("T34", "rho", -1.0, "rho must be nonnegative"),
            ("T34", "kappa", NAN, "kappa must be finite"),
            ("T34", "kappa", INF, "kappa must be finite"),
            ("T34", "kappa", 0.0, "kappa must be positive"),
            ("T36", "eta", NAN, "eta must be finite"),
            ("T36", "eta", INF, "eta must be finite"),
            ("T36", "eta", 0.0, "eta must be positive"),
            ("T37", "q", NAN, "q must be finite"),
            ("T37", "q", INF, "q must be finite"),
            ("T37", "q", 0.0, "q must be positive"),
            ("T36", "beta_exp", NAN, "beta_exp must lie in [0, 1)"),
            ("T36", "beta_exp", INF, "beta_exp must lie in [0, 1)"),
            ("T36", "beta_exp", -INF, "beta_exp must lie in [0, 1)"),
            ("T36", "beta_exp", 1.0, "beta_exp must lie in [0, 1)"),
            ("T36", "beta_exp", -0.5, "beta_exp must lie in [0, 1)"),
            ("T34", "phi", parse("x"),
             "phi must be a deterministic time weight (t only)"),
            ("T36", "phi", parse("x*t"),
             "phi must be a deterministic time weight (t only)"),
            ("T37", "phi1", parse("x"),
             "phi1 must be a deterministic time weight (t only)"),
            ("T37", "phi2", parse("1+x"),
             "phi2 must be a deterministic time weight (t only)"),
            ("T35", "nu_coeffs", (400.0,), "nu must have degree >= 1"),
            ("T35", "nu_coeffs", (400.0, -1.0),
             "nu coefficients must be positive and finite"),
            ("T35", "nu_coeffs", (400.0, NAN),
             "nu coefficients must be positive and finite"),
            ("T35", "nu_coeffs", (0.0, 1.0),
             "nu coefficients must be positive and finite"),
        ],
    )
    def test_single_fault_message(self, theorem, field, value, message):
        """A parameter set with one bad field gets exactly this message."""
        validate_certificate(CertificateSpec(theorem, **self.VALID[theorem]), B)
        fields = {**self.VALID[theorem], field: value}
        with pytest.raises(CertificateError) as err:
            validate_certificate(CertificateSpec(theorem=theorem, **fields), B)
        assert str(err.value) == message


class TestT33:
    def test_canonical_grant(self):
        spec = linear_spec(1.0, 1.0)
        rep = check_certificate(
            V2, spec, B1, CertificateSpec(theorem="T33", p=2.0, lam=1.0), GRID
        )
        assert rep.granted
        assert rep.bound == pytest.approx(-0.5, rel=1e-9)
        assert all(not h.horizon_limited for h in rep.hypotheses)

    def test_auto_lambda(self):
        spec = linear_spec(1.0, 1.0)
        rep = check_certificate(
            V2, spec, B1, CertificateSpec(theorem="T33", p=2.0), GRID
        )
        assert rep.granted
        assert rep.lam == pytest.approx(1.0, rel=1e-9)
        assert rep.bound == pytest.approx(-0.5, rel=1e-9)

    def test_rate_too_ambitious_withheld(self):
        spec = linear_spec(1.0, 1.0)
        rep = check_certificate(
            V2, spec, B1, CertificateSpec(theorem="T33", p=2.0, lam=1.5), GRID
        )
        assert not rep.granted
        failed = [h for h in rep.hypotheses if not h.passed]
        assert [h.name for h in failed] == ["decay"]
        assert failed[0].violation > 0.1

    def test_no_decay_withheld(self):
        # f = -0.1 x under unit volatility: LV = +0.8 V, no rate exists
        spec = linear_spec(0.1, 1.0)
        rep = check_certificate(
            V2, spec, B1, CertificateSpec(theorem="T33", p=2.0), GRID
        )
        assert not rep.granted
        assert rep.bound is None
        decay = rep.hypothesis("decay")
        assert "-0.8" in decay.note

    @staticmethod
    def best_lambda(spec, band, p=2.0):
        cert = CertificateSpec(theorem="T33", p=p)
        return check_certificate(V2, spec, band, cert, GRID).lam

    def test_best_lambda_values(self):
        assert self.best_lambda(linear_spec(1.0, 1.0), B1) == (
            pytest.approx(1.0, rel=1e-9)
        )
        assert self.best_lambda(linear_spec(2.0, 1.0), B) == (
            pytest.approx(3.0, rel=1e-9)
        )
        assert self.best_lambda(linear_spec(0.1, 1.0), B1) is None

    def test_best_lambda_needs_envelope(self):
        # |x|^4 <= x^2 fails for |x| > 1, so the inferred rate grants nothing
        rep = check_certificate(
            V2, linear_spec(1.0, 1.0), B1,
            CertificateSpec(theorem="T33", p=4.0), GRID,
        )
        assert not rep.granted
        assert rep.bound is None
        failed = [h.name for h in rep.hypotheses if not h.passed]
        assert failed == ["envelope"]

    def test_wider_band_weakens_certificate(self):
        wide = AmbiguityBounds(1.0, 2.0)
        lam_narrow = self.best_lambda(linear_spec(3.0, 1.0), B1)
        lam_wide = self.best_lambda(linear_spec(3.0, 1.0), wide)
        assert lam_narrow == pytest.approx(5.0, rel=1e-9)
        assert lam_wide == pytest.approx(2.0, rel=1e-9)

    def test_nonpositive_energy_rejected(self):
        lyap = LyapunovFn.from_expr(parse("x^2 - 1"))
        with pytest.raises(CertificateError, match="positive"):
            check_certificate(
                lyap, linear_spec(1.0, 1.0), B1,
                CertificateSpec(theorem="T33", p=2.0), GRID,
            )

    def test_nonsmooth_energy_carries_caveat(self):
        lyap = LyapunovFn.from_expr(parse("abs(x)^2"))
        rep = check_certificate(
            lyap, linear_spec(1.0, 1.0), B1,
            CertificateSpec(theorem="T33", p=2.0, lam=1.0), GRID,
        )
        assert rep.granted
        assert any("abs" in c for c in rep.caveats)

    def test_default_grid_used_when_omitted(self):
        rep = check_certificate(
            V2, linear_spec(1.0, 1.0), B1,
            CertificateSpec(theorem="T33", p=2.0, lam=1.0),
        )
        assert rep.granted


class TestT34:
    CERT = CertificateSpec(
        theorem="T34", p=2.0, lam=-1.0, rho=4.0, kappa=1.0, phi=parse("1")
    )

    def test_grant_with_exact_bound(self):
        """f=-x, g=x over [0.5,1]: LV = -V = lam*phi*V with lam=-1, HV =
        4 V^2 = rho*phi*V^2, Cesaro average of 1 is 1; bound
        -(kappa/p)(v_lower*rho/2 - lam) = -(1/2)(0.5+1) = -0.75."""
        rep = check_certificate(V2, linear_spec(1.0, 1.0), B, self.CERT, GRID)
        assert rep.granted
        assert rep.bound == pytest.approx(-0.75, rel=1e-9)
        ta = rep.hypothesis("time_average")
        assert ta.horizon_limited

    def test_zero_weight_fails_cesaro(self):
        cert = CertificateSpec(
            theorem="T34", p=2.0, lam=-1.0, rho=4.0, kappa=1.0, phi=parse("0")
        )
        rep = check_certificate(V2, linear_spec(1.0, 1.0), B, cert, GRID)
        assert not rep.granted
        assert not rep.hypothesis("time_average").passed

    def test_insufficient_noise_withheld(self):
        # rho = 5 overstates the noise floor: HV = 4 phi V^2 < 5 phi V^2
        cert = CertificateSpec(
            theorem="T34", p=2.0, lam=-1.0, rho=5.0, kappa=1.0, phi=parse("1")
        )
        rep = check_certificate(V2, linear_spec(1.0, 1.0), B, cert, GRID)
        assert not rep.granted
        assert not rep.hypothesis("noise_floor").passed
        assert rep.bound is None


class TestT35:
    SPEC = SdeSpec(f=parse("-x"), g=parse("exp(-t)*x"), x0=1.0)

    def test_grant(self):
        """Transient noise g = e^{-t} x: nu = 400 + t absorbs both the
        drift excess (<= 100 e^{-2t} <= nu e^{-t}) and the noise ceiling
        (HV = 4 e^{-2t} V^2 <= 400 e^{-t} V on |x| <= 10)."""
        cert = CertificateSpec(
            theorem="T35", p=2.0, lam=1.0, nu_coeffs=(400.0, 1.0)
        )
        rep = check_certificate(V2, self.SPEC, B1, cert, GRID)
        assert rep.granted
        assert rep.bound == pytest.approx(-0.5, rel=1e-9)

    def test_degree_one_needs_unit_slope(self):
        # nu = 400 + 0.5 t matches the grid but loses to t beyond the
        # horizon; the coefficient tail test must catch it
        cert = CertificateSpec(
            theorem="T35", p=2.0, lam=1.0, nu_coeffs=(400.0, 0.5)
        )
        rep = check_certificate(V2, self.SPEC, B1, cert, GRID)
        assert not rep.granted
        nu_h = rep.hypothesis("nu_dominates_t")
        assert not nu_h.passed
        assert "nu_1 < 1" in nu_h.note

    def test_quadratic_tail_dominates(self):
        cert = CertificateSpec(
            theorem="T35", p=2.0, lam=1.0, nu_coeffs=(400.0, 0.5, 0.01)
        )
        rep = check_certificate(V2, self.SPEC, B1, cert, GRID)
        assert rep.granted


class TestT36:
    def test_grant(self):
        lyap = LyapunovFn.from_expr(parse("exp(t)*x^2"))
        spec = SdeSpec(f=parse("-0.5*x"), g=parse("exp(-t)*x"), x0=1.0)
        cert = CertificateSpec(
            theorem="T36", p=2.0, lam=1.0, eta=1.0, q=1.0, beta_exp=0.0,
            phi=parse("20050"),
        )
        rep = check_certificate(lyap, spec, B1, cert, GRID)
        assert rep.granted
        assert rep.bound == pytest.approx(-0.5, rel=1e-9)
        assert rep.hypothesis("weight_growth").horizon_limited

    def test_exponential_weight_fails_growth_cap(self):
        lyap = LyapunovFn.from_expr(parse("exp(t)*x^2"))
        spec = SdeSpec(f=parse("-0.5*x"), g=parse("exp(-t)*x"), x0=1.0)
        cert = CertificateSpec(
            theorem="T36", p=2.0, lam=1.0, eta=1.0, q=1.0, beta_exp=0.0,
            phi=parse("20050*exp(0.5*t)"),
        )
        rep = check_certificate(lyap, spec, B1, cert, GRID)
        assert not rep.granted
        assert not rep.hypothesis("weight_growth").passed

    def test_envelope_violation_withheld(self):
        # plain x^2 cannot dominate e^{lam t} |x|^p
        spec = SdeSpec(f=parse("-0.5*x"), g=parse("exp(-t)*x"), x0=1.0)
        cert = CertificateSpec(
            theorem="T36", p=2.0, lam=1.0, eta=1.0, q=1.0, beta_exp=0.0,
            phi=parse("20050"),
        )
        rep = check_certificate(V2, spec, B1, cert, GRID)
        assert not rep.granted
        assert not rep.hypothesis("envelope").passed


class TestT37:
    def test_grant(self):
        """Growing energy e^{2t} x^2 with decaying noise: the weighted
        drift fits under phi1 = 40100 e^{0.5 t} whose growth rate 0.5 sits
        well below the cap q = 1.5; bound -(lam - q)/p = -0.25."""
        lyap = LyapunovFn.from_expr(parse("exp(2*t)*x^2"))
        spec = SdeSpec(f=parse("-x"), g=parse("exp(-t)*x"), x0=1.0)
        cert = CertificateSpec(
            theorem="T37", p=2.0, lam=2.0, eta=1.0, q=1.5, beta_exp=0.0,
            phi1=parse("40100*exp(0.5*t)"), phi2=parse("0"),
        )
        rep = check_certificate(lyap, spec, B1, cert, GRID)
        assert rep.granted
        assert rep.bound == pytest.approx(-0.25, rel=1e-9)
        # phi2 = 0 passes its cap trivially
        w2 = rep.hypothesis("weight2_growth")
        assert w2.passed
        assert w2.violation == -np.inf

    def test_drift_violation_withheld(self):
        lyap = LyapunovFn.from_expr(parse("exp(2*t)*x^2"))
        spec = SdeSpec(f=parse("-x"), g=parse("exp(-t)*x"), x0=1.0)
        cert = CertificateSpec(
            theorem="T37", p=2.0, lam=2.0, eta=1.0, q=1.5, beta_exp=0.0,
            phi1=parse("100"), phi2=parse("0"),
        )
        rep = check_certificate(lyap, spec, B1, cert, GRID)
        assert not rep.granted
        assert not rep.hypothesis("drift").passed


class TestT38:
    CERT = CertificateSpec(
        theorem="T38", p=2.0, lam=2.0625, rho=1.0, kappa=1.0, phi=parse("1")
    )
    SPEC = SdeSpec(f=parse("x"), g=parse("0.5*x"), x0=1.0)

    def test_grant_with_exact_bound(self):
        """f=x, g=0.5x over [0.5,1]: the best-case drift is
        (2 + 0.25*0.25) V = 2.0625 V and HV = V^2; the granted growth rate
        is (kappa/p)(lam - v_upper*rho/2) = (1/2)(2.0625-0.5) = 0.78125."""
        rep = check_certificate(V2, self.SPEC, B, self.CERT, GRID)
        assert rep.granted
        assert rep.bound == pytest.approx(0.78125, rel=1e-9)
        assert rep.bound > 0

    def test_overstated_growth_withheld(self):
        cert = CertificateSpec(
            theorem="T38", p=2.0, lam=2.1, rho=1.0, kappa=1.0, phi=parse("1")
        )
        rep = check_certificate(V2, self.SPEC, B, cert, GRID)
        assert not rep.granted
        assert not rep.hypothesis("drift").passed

    def test_envelope_direction_reversed(self):
        # T38 needs V <= |x|^p; an inflated energy must fail
        lyap = LyapunovFn.from_expr(parse("2*x^2"))
        cert = CertificateSpec(
            theorem="T38", p=2.0, lam=2.06, rho=0.5, kappa=1.0, phi=parse("1")
        )
        rep = check_certificate(lyap, self.SPEC, B, cert, GRID)
        assert not rep.hypothesis("envelope").passed


class TestReports:
    def test_verdict_lines(self):
        spec = linear_spec(1.0, 1.0)
        granted = check_certificate(
            V2, spec, B1, CertificateSpec(theorem="T33", p=2.0, lam=1.0), GRID
        )
        assert verdict_line(granted) == "T33: granted (limsup rate <= -0.5)"
        withheld = check_certificate(
            V2, spec, B1, CertificateSpec(theorem="T33", p=2.0, lam=1.5), GRID
        )
        assert verdict_line(withheld) == "T33: withheld (failed: decay)"
        growth = check_certificate(
            V2, TestT38.SPEC, B, TestT38.CERT, GRID
        )
        assert verdict_line(growth) == "T38: granted (liminf rate >= 0.78125)"

    def test_certificate_csv(self, tmp_path):
        rep = check_certificate(
            V2, linear_spec(1.0, 1.0), B,
            TestT34.CERT, GRID,
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_certificate_csv(p1, rep)
        write_certificate_csv(p2, rep)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "hypothesis"
        names = [r[0] for r in rows[1:]]
        assert names == ["envelope", "drift", "noise_floor", "time_average"]
        assert all(r[1] == "true" for r in rows[1:])
        # horizon flag set only on the time-average row
        assert [r[5] for r in rows[1:]] == ["false", "false", "false", "true"]
