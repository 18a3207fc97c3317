"""Path integration: deterministic limits, closed-form agreement, scheme
order sanity, explosion flagging, CSV output."""

import csv

import numpy as np
import pytest

from gsde.expr import EvalDomainError, parse
from gsde.gcalc import AmbiguityBounds
from gsde.integrator import (
    EXPLOSION_THRESHOLD,
    SdeSpec,
    integrate,
    linear_closed_form,
    write_path_csv,
)
from gsde.scenario import Constant, sample_path, uniform_grid

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
        pb = sample_path(Constant(1.0), B1, grid, seed=3)
        X = linear_closed_form(1.0, 0.5, pb)
        # log X = -t - 0.5*0.25*qv + 0.5*B pathwise
        Bpath = np.concatenate([[0.0], np.cumsum(pb.dB)])
        expected = np.exp(-grid - 0.125 * pb.qv + 0.5 * Bpath)
        np.testing.assert_allclose(X, expected, rtol=1e-12)

    def test_closed_form_scales_with_x0(self):
        grid = uniform_grid(0.0, 1.0, 0.01)
        pb = sample_path(Constant(1.0), B1, grid, seed=3)
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
