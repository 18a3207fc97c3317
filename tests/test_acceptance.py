"""End-to-end acceptance checks.

One test per shipped guarantee, each with pinned tolerances and, where a
budget applies, a wall-clock limit.  Each test prints a single PASS line
(visible under pytest -s) naming the guarantee it locked down.
"""

import time

import numpy as np

from gsde.estimator import (
    MartingaleCheckSpec,
    estimate_exponent,
    estimate_sublinear_expectation,
    martingale_bound_check,
)
from gsde.expr import parse
from gsde.gcalc import AmbiguityBounds, g_upper
from gsde.integrator import SdeSpec, integrate, linear_closed_form
from gsde.lyapunov import CertificateSpec, CheckGrid, LyapunovFn, check_certificate
from gsde.scenario import (
    BangBangInTime,
    Constant,
    PiecewiseRandom,
    enumerate_family,
    uniform_grid,
)

BAND = AmbiguityBounds(0.5, 1.0)
GRID = CheckGrid.default()


def _timed(budget):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s budget"
        return elapsed

    return check


def test_criterion_01_canonical_stability_certificate():
    # dX = -X dt + X dB on sigma band [0.5, 1]: decay margin 2*1 - 1 = 1,
    # quadratic envelope exact, implied rate -1/2.  Budget 1 s.
    done = _timed(1.0)
    lyap = LyapunovFn.from_expr(parse("x^2"))
    sde = SdeSpec(f=parse("-x"), g=parse("x"), x0=1.0)
    cert = CertificateSpec(theorem="T33", p=2.0)
    report = check_certificate(lyap, sde, BAND, cert, GRID)
    assert report.granted
    assert abs(report.lam - 1.0) <= 1e-9
    assert abs(report.bound - (-0.5)) <= 1e-9 * 0.5
    elapsed = done()
    print(
        f"criterion 1: PASS canonical certificate granted, rate bound -0.5 "
        f"exact to 1e-9 ({elapsed:.2f}s)"
    )


def test_criterion_02_stability_boundary_sweep():
    # Verdict over drift slopes 0.3..0.8 must flip exactly where the decay
    # margin 2*alpha - 1 turns positive, i.e. first at 0.6.  Budget 5 s.
    done = _timed(5.0)
    lyap = LyapunovFn.from_expr(parse("x^2"))
    cert = CertificateSpec(theorem="T33", p=2.0)
    verdicts = {}
    for alpha in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
        sde = SdeSpec(f=parse(f"-{alpha}*x"), g=parse("x"), x0=1.0)
        verdicts[alpha] = check_certificate(lyap, sde, BAND, cert, GRID).granted
    assert verdicts == {
        0.3: False,
        0.4: False,
        0.5: False,
        0.6: True,
        0.7: True,
        0.8: True,
    }
    elapsed = done()
    print(
        f"criterion 2: PASS certificate flips exactly at drift slope 0.6 "
        f"({elapsed:.2f}s)"
    )


def test_criterion_03_certificate_matches_simulation():
    # The granted -0.5 bound must dominate the measured worst-case rate,
    # and the worst case over the family must match the closed-form value
    # -alpha - beta^2 sigma_lower^2 / 2 = -1.125 within 0.05.  Budget 2 min.
    done = _timed(120.0)
    sde = SdeSpec(f=parse("-x"), g=parse("x"), x0=1.0)
    family = enumerate_family(BAND, 3)
    est = estimate_exponent(
        sde, family, BAND, horizon=200.0, dt=1e-3, n_paths=500, seed=0
    )
    assert est.family_sup_mean <= -0.5 + 0.1
    assert abs(est.family_sup_mean - (-1.125)) <= 0.05
    elapsed = done()
    print(
        f"criterion 3: PASS worst-case measured rate "
        f"{est.family_sup_mean:.4f} within 0.05 of -1.125 and below "
        f"-0.4 ({elapsed:.1f}s)"
    )


def test_criterion_04_quadratic_variation_sandwich():
    # Every realized variance increment sits inside
    # [v_lower * dt, v_upper * dt] with zero tolerance, for 100 random
    # scenario/seed/band combinations, each integrated on dX = -X dt +
    # X dB.  Budget 10 s.
    done = _timed(10.0)
    rng = np.random.default_rng(2026)
    sde = SdeSpec(f=parse("-x"), g=parse("x"), x0=1.0)
    grid = uniform_grid(0.0, 2.0, 1e-3)
    dtau = np.diff(grid)
    for trial in range(100):
        lo = float(rng.uniform(0.2, 1.0))
        hi = float(rng.uniform(lo + 0.1, lo + 1.1))
        b = AmbiguityBounds(lo, hi)
        kind = trial % 3
        if kind == 0:
            # deliberately off-band levels exercise the clamp
            s = Constant(float(rng.uniform(0.0, 2.0)))
        elif kind == 1:
            times = np.sort(rng.uniform(0.2, 1.8, size=3))
            levels = rng.uniform(0.0, 2.0, size=3)
            s = BangBangInTime(tuple(times), tuple(levels))
        else:
            s = PiecewiseRandom(dwell=float(rng.uniform(0.05, 0.5)))
        seed = int(rng.integers(1 << 31))
        bundle = integrate(sde, s, b, grid, seed=seed).bundle
        assert np.all(bundle.dqv >= b.v_lower * dtau)
        assert np.all(bundle.dqv <= b.v_upper * dtau)
    elapsed = done()
    print(
        f"criterion 4: PASS 100 random scenarios keep every variance "
        f"increment inside the band, zero tolerance ({elapsed:.1f}s)"
    )


def test_criterion_05_strong_convergence_orders():
    # Terminal strong error against the exact solution on the same driver:
    # slope 0.5 +/- 0.15 for euler, 1.0 +/- 0.2 for milstein, over four
    # step sizes with 200 paths.  Budget 1 min.
    done = _timed(60.0)
    sde = SdeSpec(f=parse("-x"), g=parse("0.5*x"), x0=1.0)
    scen = BangBangInTime((0.3, 0.7), (1.0, 0.25))
    dts = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    slopes = {}
    for method in ("euler", "milstein"):
        errs = []
        for dt in dts:
            grid = uniform_grid(0.0, 1.0, dt)
            total = 0.0
            for p in range(200):
                run = integrate(
                    sde, scen, BAND, grid, seed=11, method=method, path_index=p
                )
                exact = linear_closed_form(1.0, 0.5, run.bundle, x0=1.0)
                total += abs(run.bundle.X[-1] - exact[-1])
            errs.append(total / 200)
        slopes[method] = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    assert abs(slopes["euler"] - 0.5) <= 0.15
    assert abs(slopes["milstein"] - 1.0) <= 0.2
    elapsed = done()
    print(
        f"criterion 5: PASS strong orders euler {slopes['euler']:.2f}, "
        f"milstein {slopes['milstein']:.2f} ({elapsed:.1f}s)"
    )


def test_criterion_06_ambiguity_function_properties():
    # g_lower(a) <= a*v/2 <= g_upper(a) exactly on a 100x100 grid, and
    # positive homogeneity / sub-additivity of g_upper on random triples
    # to 1e-12.
    from gsde.gcalc import g_lower

    alphas = np.linspace(-5.0, 5.0, 100)
    vs = np.linspace(BAND.v_lower, BAND.v_upper, 100)
    for a in alphas:
        half = 0.5 * a * vs
        assert np.all(g_lower(a, BAND) <= half)
        assert np.all(half <= g_upper(a, BAND))
    rng = np.random.default_rng(7)
    for _ in range(500):
        a1, a2 = rng.uniform(-10, 10, size=2)
        lam = rng.uniform(0, 10)
        assert abs(g_upper(lam * a1, BAND) - lam * g_upper(a1, BAND)) <= 1e-12 * max(
            1.0, abs(lam * g_upper(a1, BAND))
        )
        sub = g_upper(a1 + a2, BAND) - g_upper(a1, BAND) - g_upper(a2, BAND)
        assert sub <= 1e-12
    print(
        "criterion 6: PASS band generator sandwich exact, homogeneity and "
        "sub-additivity to 1e-12"
    )


def test_criterion_07_worst_case_expectation_axioms():
    # Constant preservation exact; monotonicity and sub-additivity of the
    # estimated worst-case expectation within 2 standard errors, for 20
    # seeded trials.
    done = _timed(120.0)
    sde = SdeSpec(f=parse("-x"), g=parse("x"), x0=1.0)
    family = enumerate_family(BAND, 1)
    kw = dict(horizon=5.0, dt=5e-3, n_paths=64)
    for seed in range(20):
        const = estimate_sublinear_expectation(
            "constant", sde, family, BAND, seed=seed, constant_value=3.5, **kw
        )
        assert const.value == 3.5
        assert all(m == 3.5 for m in const.means)

        term = estimate_sublinear_expectation(
            "terminal_abs_pow", sde, family, BAND, seed=seed, **kw
        )
        runmax = estimate_sublinear_expectation(
            "running_max_abs", sde, family, BAND, seed=seed, **kw
        )
        se_mono = np.hypot(np.max(term.stderrs), np.max(runmax.stderrs))
        assert runmax.value >= term.value - 2.0 * se_mono

        eb = estimate_sublinear_expectation(
            "terminal_b", sde, family, BAND, seed=seed, **kw
        )
        eqv = estimate_sublinear_expectation(
            "terminal_qv", sde, family, BAND, seed=seed, **kw
        )
        esum = estimate_sublinear_expectation(
            "terminal_b_plus_qv", sde, family, BAND, seed=seed, **kw
        )
        se_sub = float(
            np.sqrt(
                np.max(eb.stderrs) ** 2
                + np.max(eqv.stderrs) ** 2
                + np.max(esum.stderrs) ** 2
            )
        )
        assert esum.value <= eb.value + eqv.value + 2.0 * se_sub
    elapsed = done()
    print(
        f"criterion 7: PASS worst-case expectation axioms hold over 20 "
        f"seeded trials ({elapsed:.1f}s)"
    )


def test_criterion_08_instability_certificate():
    # dX = X dt + 0.5 X dB: independent hand algebra puts the certified
    # escape rate at (kappa/p)(lambda - v_upper*rho/2) with
    # lambda = 2*alpha + beta^2*v_lower = 2.0625 and rho = 4*beta^2 = 1,
    # so 0.5 * (2.0625 - 0.5) = 0.78125.  The checker must grant exactly
    # that, and the measured family-inf rate must sit above it minus 0.1
    # at horizon 200.
    alpha, beta = 1.0, 0.5
    lam_hand = 2.0 * alpha + beta**2 * BAND.v_lower
    rho_hand = 4.0 * beta**2
    bound_hand = (1.0 / 2.0) * (lam_hand - BAND.v_upper * rho_hand / 2.0)
    assert bound_hand == 0.78125

    lyap = LyapunovFn.from_expr(parse("x^2"))
    sde = SdeSpec(f=parse("x"), g=parse("0.5*x"), x0=1.0)
    cert = CertificateSpec(
        theorem="T38", p=2.0, lam=lam_hand, rho=rho_hand, kappa=1.0,
        phi=parse("1"),
    )
    report = check_certificate(lyap, sde, BAND, cert, GRID)
    assert report.granted
    assert abs(report.bound - bound_hand) <= 1e-9 * bound_hand

    # escape rate is start-point free for a homogeneous SDE; a tiny start
    # keeps growing paths inside the truncation guard out to t = 200
    sde_small = SdeSpec(f=parse("x"), g=parse("0.5*x"), x0=1e-90)
    family = enumerate_family(BAND, 1)
    est = estimate_exponent(
        sde_small, family, BAND, horizon=200.0, dt=1e-3, n_paths=100, seed=0
    )
    assert all(s.n_flagged == 0 for s in est.scenarios)
    inf_mean = min(s.mean for s in est.scenarios)
    assert inf_mean >= bound_hand - 0.1
    print(
        f"criterion 8: PASS escape certificate grants 0.78125 and the "
        f"measured family-inf rate {inf_mean:.4f} stays above 0.68125"
    )


def test_criterion_09_martingale_growth_bound():
    # With the default thresholds (gamma = 1, theta = 2, windows at
    # t = 1..50), at least 99% of 1000 paths must satisfy the exponential
    # bound from some window index on.
    mspec = MartingaleCheckSpec(eta=parse("1"))
    sde = SdeSpec(f=parse("0"), g=parse("1"), x0=1.0)
    report = martingale_bound_check(
        mspec, sde, Constant(0.25), BAND, n_paths=1000, seed=0
    )
    settled = np.count_nonzero(report.k0 != -1)
    assert settled >= 0.99 * 1000
    print(
        f"criterion 9: PASS martingale growth bound settles for "
        f"{settled}/1000 paths (need 990)"
    )
