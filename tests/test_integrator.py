"""Path integration: deterministic limits, closed-form agreement, scheme
order sanity, explosion flagging, CSV output."""

import csv
import re
from pathlib import Path

import numpy as np
import pytest

import gsde
from gsde.expr import EvalDomainError, parse
from gsde.gcalc import AmbiguityBounds
from gsde.integrator import (
    EXPLOSION_THRESHOLD,
    SdeSpec,
    integrate,
    linear_closed_form,
    write_path_csv,
)
from gsde.csvio import write_csv
from gsde.scenario import (
    BangBangInTime,
    Constant,
    standard_increments,
    uniform_grid,
)

B1 = AmbiguityBounds(1.0, 1.0)
B = AmbiguityBounds(0.5, 1.0)


def linear_spec(alpha, beta, x0=1.0):
    return SdeSpec(f=parse(f"-{alpha}*x"), g=parse(f"{beta}*x"), x0=x0)


class TestDeterministicLimit:
    def test_ode_decay_matches_euler_product(self):
        """g = 0 reduces to the explicit Euler map x -> x(1 - a dt)."""
        spec = SdeSpec(f=parse("-2*x"), g=parse("0"), x0=1.0)
        grid = uniform_grid(0.0, 1.0, 0.01)
        run = integrate(spec, Constant(1.0), B1, grid, seed=0)
        expected = (1 - 2 * 0.01) ** 100
        assert run.bundle.X[-1] == pytest.approx(expected, rel=1e-12)

    def test_ode_converges_to_exponential(self):
        spec = SdeSpec(f=parse("-2*x"), g=parse("0"), x0=1.0)
        errs = []
        for dt in (0.01, 0.005):
            grid = uniform_grid(0.0, 1.0, dt)
            run = integrate(spec, Constant(1.0), B1, grid, seed=0)
            errs.append(abs(run.bundle.X[-1] - np.exp(-2.0)))
        assert errs[1] < errs[0]
        assert errs[0] < 5e-3

    def test_x0_zero_stays_zero(self):
        spec = linear_spec(1.0, 0.5, x0=0.0)
        grid = uniform_grid(0.0, 1.0, 0.01)
        run = integrate(spec, Constant(1.0), B, grid, seed=0)
        assert np.all(run.bundle.X == 0.0)


class TestClosedForm:
    def test_pure_diffusion_identity(self):
        """alpha = 0, beta = 1: Euler gives X_{n+1} = X_n (1 + dB_n), and
        the closed form evaluated on the same bundle is the exponential;
        for small dt they agree to the scheme's accuracy."""
        spec = linear_spec(0.0, 1.0)
        grid = uniform_grid(0.0, 1.0, 1e-4)
        run = integrate(spec, Constant(0.25), B, grid, seed=12)
        exact = linear_closed_form(0.0, 1.0, run.bundle)
        assert run.bundle.X[-1] == pytest.approx(exact[-1], rel=2e-2)

    def test_closed_form_uses_bundle_driver(self):
        grid = uniform_grid(0.0, 2.0, 0.01)
        pb = integrate(linear_spec(1.0, 0.5), Constant(1.0), B1, grid, seed=3).bundle
        X = linear_closed_form(1.0, 0.5, pb)
        # log X = -t - 0.5*0.25*qv + 0.5*B pathwise
        Bpath = np.concatenate([[0.0], np.cumsum(pb.dB)])
        expected = np.exp(-grid - 0.125 * pb.qv + 0.5 * Bpath)
        np.testing.assert_allclose(X, expected, rtol=1e-12)

    def test_closed_form_scales_with_x0(self):
        grid = uniform_grid(0.0, 1.0, 0.01)
        pb = integrate(linear_spec(1.0, 1.0), Constant(1.0), B1, grid, seed=3).bundle
        np.testing.assert_array_equal(
            linear_closed_form(1.0, 1.0, pb, x0=2.0),
            2.0 * linear_closed_form(1.0, 1.0, pb),
        )


class TestSchemeAccuracy:
    def test_milstein_beats_euler_strong_error(self):
        alpha, beta = 1.0, 1.0
        spec = linear_spec(alpha, beta)
        errs = {"euler": [], "milstein": []}
        for method in errs:
            for p in range(40):
                grid = uniform_grid(0.0, 1.0, 0.01)
                run = integrate(
                    spec, Constant(1.0), B1, grid, seed=77, method=method,
                    path_index=p,
                )
                exact = linear_closed_form(alpha, beta, run.bundle)
                errs[method].append(abs(run.bundle.X[-1] - exact[-1]))
        assert np.mean(errs["milstein"]) < 0.5 * np.mean(errs["euler"])

    def test_unknown_method_rejected(self):
        spec = linear_spec(1.0, 1.0)
        grid = uniform_grid(0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="method"):
            integrate(spec, Constant(1.0), B1, grid, seed=0, method="heun")


def test_step_rule_lives_in_one_module():
    """Only integrator spells the step: the Milstein correction's dW * dW
    and the derivation of g_x appear nowhere else in the package."""
    src = Path(gsde.__file__).resolve().parent
    offenders = [
        p.name
        for p in sorted(src.glob("*.py"))
        if p.name != "integrator.py"
        and re.search(r"dW \* dW|differentiate\(spec\.g", p.read_text())
    ]
    assert offenders == []


class TestExplosion:
    def test_supercritical_drift_flags(self):
        spec = SdeSpec(f=parse("x^3"), g=parse("0"), x0=5.0)
        grid = uniform_grid(0.0, 10.0, 0.1)
        run = integrate(spec, Constant(1.0), B1, grid, seed=0)
        assert run.exploded
        assert run.first_bad_index is not None
        i = run.first_bad_index
        assert np.all(np.isnan(run.bundle.X[i + 1 :]))
        head = run.bundle.X[:i]
        assert np.all(np.abs(head[np.isfinite(head)]) <= EXPLOSION_THRESHOLD)

    def test_overflow_inside_drift_flags(self):
        """exp(x) overflows once the state escapes; that is an explosion,
        not a domain error, so the run is flagged instead of raising."""
        spec = SdeSpec(f=parse("exp(x)"), g=parse("0"), x0=1.0)
        grid = uniform_grid(0.0, 1.0, 0.1)
        run = integrate(spec, Constant(1.0), B1, grid, seed=0)
        assert run.exploded
        assert np.all(np.isnan(run.bundle.X[run.first_bad_index:]))

    def test_domain_error_surfaces_with_location(self):
        spec = SdeSpec(f=parse("-x"), g=parse("sqrt(x)"), x0=1.0)
        grid = uniform_grid(0.0, 5.0, 0.01)
        with pytest.raises(EvalDomainError):
            integrate(spec, Constant(1.0), B1, grid, seed=2)

    @pytest.mark.parametrize(
        "x0, first_bad",
        [
            (2.0, 6),  # crosses the threshold with a finite 7.8e24
            (1e110, 1),  # x*x*x overflows to inf on the first step
        ],
    )
    def test_exploding_path_is_exact(self, x0, first_bad):
        """Up to the crossing X is the Euler recursion on the recorded
        driver; after it X is nan, v repeats the crossing step's rate
        (not the scenario's later 0.25) and dB is 0."""
        s = BangBangInTime((0.55, 10.0), (1.0, 0.25))
        grid = uniform_grid(0.0, 1.0, 0.1)
        spec = SdeSpec(f=parse("x*x*x"), g=parse("x"), x0=x0)
        run = integrate(spec, s, B, grid, seed=4)
        b = run.bundle
        n = grid.size - 1
        dtau = np.diff(grid)
        assert run.exploded
        assert run.first_bad_index == first_bad
        np.testing.assert_array_equal(
            b.dW, standard_increments(4, 0, n) * np.sqrt(dtau)
        )
        np.testing.assert_array_equal(b.v, np.ones(n))
        dB = np.zeros(n)
        dB[:first_bad] = b.dW[:first_bad]
        np.testing.assert_array_equal(b.dB, dB)
        xs = [x0]
        for i in range(first_bad):
            x = xs[-1]
            xs.append(x + x * x * x * dtau[i] + x * dB[i])
        expected = np.full(n + 1, np.nan)
        expected[: first_bad + 1] = xs
        expected[np.isinf(expected)] = np.nan  # an overflowed step is stored as nan
        np.testing.assert_array_equal(b.X, expected)
        assert not abs(b.X[first_bad]) <= EXPLOSION_THRESHOLD

    def test_grid_must_start_at_t0(self):
        spec = linear_spec(1.0, 0.0)
        grid = uniform_grid(1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="t0"):
            integrate(spec, Constant(1.0), B1, grid, seed=0)


class TestPathCsv:
    def test_schema_and_determinism(self, tmp_path):
        spec = linear_spec(1.0, 0.5)
        grid = uniform_grid(0.0, 1.0, 0.1)
        run = integrate(spec, Constant(0.25), B, grid, seed=6)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_path_csv(p1, run)
        write_path_csv(p2, run)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "W", "v", "B", "qv", "X"]
        assert len(rows) == 1 + grid.size
        # first row is the initial condition
        assert rows[1][0] == "0"
        assert float(rows[1][5]) == 1.0
        # columns reproduce the run to full precision
        t_col = np.array([float(r[0]) for r in rows[1:]])
        x_col = np.array([float(r[5]) for r in rows[1:]])
        np.testing.assert_array_equal(t_col, grid)
        np.testing.assert_array_equal(x_col, run.bundle.X)
        qv_col = np.array([float(r[4]) for r in rows[1:]])
        np.testing.assert_array_equal(qv_col, run.bundle.qv)

    def test_bytes_equal_cell_writer(self, tmp_path):
        """The path file equals write_csv of the same columns, cell by cell
        through fmt, nan tail of an exploded run included."""
        spec = SdeSpec(f=parse("x*x*x"), g=parse("x"), x0=2.0)
        grid = uniform_grid(0.0, 1.0, 0.1)
        run = integrate(spec, Constant(1.0), B, grid, seed=4)
        assert run.exploded
        b = run.bundle
        columns = (
            b.grid,
            np.concatenate([[0.0], np.cumsum(b.dW)]),
            np.concatenate([b.v, b.v[-1:]]),
            np.concatenate([[0.0], np.cumsum(b.dB)]),
            b.qv,
            b.X,
        )
        header = ("t", "W", "v", "B", "qv", "X")
        write_path_csv(tmp_path / "a.csv", run)
        write_csv(tmp_path / "b.csv", header, zip(*(c.tolist() for c in columns)))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
