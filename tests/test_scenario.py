"""Scenarios: quadratic variation bounds of their driver paths,
reproducibility, the deterministic family recipe, textual round trips and
the one table of kinds."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import gsde
from gsde.expr import KERNEL_MODE, EvalDomainError, parse
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
    parse_scenario,
    standard_increments,
    uniform_grid,
    variance_stream,
)

B = AmbiguityBounds(0.5, 1.0)
# dX = 0: no step is flagged, so every rate of the bundle is the scenario's
STILL = SdeSpec(f=parse("0"), g=parse("0"), x0=1.0)


def driver(s, b, grid, seed, path_index=0):
    """The driver path (grid, dW, v, dB, dqv, qv) of one integration."""
    return integrate(STILL, s, b, grid, seed, path_index=path_index).bundle


class TestGrid:
    def test_uniform_grid_endpoints(self):
        g = uniform_grid(0.0, 200.0, 1e-3)
        assert g.size == 200001
        assert g[0] == 0.0
        assert g[-1] == 200.0

    def test_uniform_grid_rejects_bad_args(self):
        with pytest.raises(ValueError):
            uniform_grid(0.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            uniform_grid(0.0, 1.0, 0.0)


class TestQuadraticVariation:
    def test_qv_exact_at_band_top(self):
        grid = uniform_grid(0.0, 200.0, 1e-3)
        pb = driver(Constant(1.0), B, grid, seed=7)
        # v = 1.0 makes dqv = dtau bitwise; grid increments telescope
        assert pb.qv[-1] == 200.0

    def test_qv_exact_at_band_bottom(self):
        grid = uniform_grid(0.0, 200.0, 1e-3)
        pb = driver(Constant(0.25), B, grid, seed=7)
        assert pb.qv[-1] == 50.0

    def test_per_step_sandwich_is_exact(self):
        """Every dqv increment sits in [v_lower*dtau, v_upper*dtau] with no
        tolerance: rounding of v*dtau is monotone in v at fixed dtau > 0.
        The rates equal the policy called one step at a time."""
        grid = uniform_grid(0.0, 10.0, 0.01)
        dtau = np.diff(grid)
        for s in (
            Constant(0.6),
            BangBangInTime((3.0, 7.0), (1.0, 0.25)),
            PiecewiseRandom(0.5),
        ):
            pb = driver(s, B, grid, seed=42)
            policy = variance_stream(s, B, grid, 42, 0)
            np.testing.assert_array_equal(
                pb.v, [policy(i, grid[i], None) for i in range(dtau.size)]
            )
            assert np.all(pb.dqv >= B.v_lower * dtau)
            assert np.all(pb.dqv <= B.v_upper * dtau)

    def test_out_of_band_rate_is_clamped(self):
        grid = uniform_grid(0.0, 1.0, 0.1)
        pb_low = driver(Constant(0.01), B, grid, seed=1)
        pb_high = driver(Constant(50.0), B, grid, seed=1)
        assert np.all(pb_low.v == B.v_lower)
        assert np.all(pb_high.v == B.v_upper)


class TestReproducibility:
    def test_same_seed_same_path(self):
        grid = uniform_grid(0.0, 1.0, 0.01)
        a = driver(PiecewiseRandom(0.1), B, grid, seed=3, path_index=5)
        b = driver(PiecewiseRandom(0.1), B, grid, seed=3, path_index=5)
        np.testing.assert_array_equal(a.dW, b.dW)
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.dB, b.dB)

    def test_different_paths_differ(self):
        grid = uniform_grid(0.0, 1.0, 0.01)
        a = driver(Constant(1.0), B, grid, seed=3, path_index=0)
        b = driver(Constant(1.0), B, grid, seed=3, path_index=1)
        assert not np.array_equal(a.dW, b.dW)

    def test_wiener_draws_independent_of_scenario(self):
        """Common random numbers: the Wiener stream never depends on the
        scenario, including level-drawing ones."""
        grid = uniform_grid(0.0, 1.0, 0.01)
        a = driver(Constant(1.0), B, grid, seed=3)
        b = driver(PiecewiseRandom(0.05), B, grid, seed=3)
        np.testing.assert_array_equal(a.dW, b.dW)

    def test_chunked_draws_match_whole_path(self):
        z_all = standard_increments(11, 2, 1000)
        import gsde.scenario as sc

        gen = sc.stream_generator(11, sc.WIENER_STREAM, 2)
        chunks = np.concatenate([gen.standard_normal(256) for _ in range(3)]
                                + [gen.standard_normal(1000 - 3 * 256)])
        np.testing.assert_array_equal(z_all, chunks)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, seed):
        """Seeds outside [0, 2^64) must not wrap onto a valid key."""
        with pytest.raises(ValueError, match="seed"):
            standard_increments(seed, 0, 4)

    def test_largest_seed_accepted(self):
        z = standard_increments(2**64 - 1, 0, 4)
        assert np.all(np.isfinite(z))
        assert not np.array_equal(z, standard_increments(0, 0, 4))

    def test_increment_moments(self):
        grid = uniform_grid(0.0, 1.0, 0.5)
        zs = np.array(
            [driver(Constant(1.0), B, grid, seed=0, path_index=p).dW[0]
             for p in range(10000)]
        )
        # dW ~ N(0, 0.5); mean within 4 standard errors
        assert abs(zs.mean()) < 4 * np.sqrt(0.5) / 100
        assert zs.std() == pytest.approx(np.sqrt(0.5), rel=0.05)


class TestScenarioKinds:
    def test_bangbang_time_levels(self):
        s = BangBangInTime((2.0, 5.0), (1.0, 0.25))
        grid = uniform_grid(0.0, 10.0, 1.0)
        pb = driver(s, B, grid, seed=0)
        # levels[j] applies for t < times[j]; last level holds afterwards
        np.testing.assert_array_equal(pb.v[:2], [1.0, 1.0])
        np.testing.assert_array_equal(pb.v[2:5], [0.25, 0.25, 0.25])
        np.testing.assert_array_equal(pb.v[5:], [0.25] * 5)

    def test_bangbang_time_validation(self):
        with pytest.raises(ValueError):
            BangBangInTime((5.0, 2.0), (1.0, 0.25))
        with pytest.raises(ValueError):
            BangBangInTime((), ())
        with pytest.raises(ValueError):
            BangBangInTime((1.0,), (1.0, 0.25))

    @pytest.mark.parametrize(
        "make",
        [
            lambda nan: Constant(nan),
            lambda nan: BangBangInTime((nan,), (1.0,)),
            lambda nan: BangBangInTime((1.0, 2.0), (0.25, nan)),
            lambda nan: BangBangInX(nan, 0.25, 1.0),
            lambda nan: BangBangInX(0.0, nan, 1.0),
            lambda nan: BangBangInX(0.0, 0.25, nan),
        ],
    )
    def test_nan_parameters_rejected(self, make):
        """The band clamp keeps nan, so a nan field is refused at once."""
        with pytest.raises(ValueError, match="must not be nan"):
            make(float("nan"))

    def test_infinite_rate_clamps(self):
        grid = uniform_grid(0.0, 1.0, 0.1)
        np.testing.assert_array_equal(
            driver(Constant(float("inf")), B, grid, seed=0).v, B.v_upper
        )

    def test_piecewise_random_dwell(self):
        s = PiecewiseRandom(0.25)
        grid = uniform_grid(0.0, 1.0, 0.05)
        pb = driver(s, B, grid, seed=5)
        # constant within each dwell block
        for blk in range(4):
            vals = pb.v[blk * 5 : (blk + 1) * 5]
            assert np.all(vals == vals[0])
        assert np.all((pb.v >= B.v_lower) & (pb.v <= B.v_upper))

    def test_piecewise_random_needs_positive_dwell(self):
        with pytest.raises(ValueError):
            PiecewiseRandom(0.0)

    def test_state_feedback_stream(self):
        s = BangBangInX(0.0, 0.25, 1.0)
        grid = uniform_grid(0.0, 1.0, 0.5)
        fn = variance_stream(s, B, grid, seed=0, paths=np.arange(3))
        x = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(fn(0, 0.0, x), [0.25, 1.0, 1.0])

    def test_curvature_feedback_stream(self):
        s = FeedbackSignVxx(parse("x^2"))
        grid = uniform_grid(0.0, 1.0, 0.5)
        fn = variance_stream(s, B, grid, seed=0, paths=np.arange(2))
        np.testing.assert_array_equal(
            fn(0, 0.0, np.array([-1.0, 1.0])), [1.0, 1.0]
        )

    def test_curvature_feedback_rechecks_under_kernel_mode(self):
        """Under the stepping loops' KERNEL_MODE, a live state outside V_xx's
        domain raises, also where V_xx comes out finite (2 sign(log(x)) is
        -2 at x = 0), while an overflowing V_xx and a flagged (nan) lane
        pass."""
        grid = uniform_grid(0.0, 1.0, 0.5)

        def policy(v):
            return variance_stream(
                FeedbackSignVxx(parse(v)), B, grid, seed=0, paths=np.arange(3)
            )

        log_fn, sign_fn, exp_fn = map(
            policy, ("x^2*log(x)", "x^2*sign(log(x))", "exp(100*x^2)")
        )
        with np.errstate(**KERNEL_MODE):
            with pytest.raises(EvalDomainError, match="log"):
                log_fn(0, 0.0, np.array([1.0, -0.5, np.nan]))
            with pytest.raises(EvalDomainError, match="log"):
                log_fn(0, 0.0, -0.5)
            with pytest.raises(EvalDomainError, match="log"):
                sign_fn(0, 0.0, np.array([2.0, 0.0, np.nan]))
            np.testing.assert_array_equal(
                exp_fn(0, 0.0, np.array([0.1, 3.0, np.nan])), [1.0, 1.0, 0.25]
            )
            np.testing.assert_array_equal(
                log_fn(0, 0.0, np.array([0.1, 1.0, np.nan])), [0.25, 1.0, 0.25]
            )


class TestFamily:
    def test_minimal_family(self):
        fam = enumerate_family(B, 1)
        assert fam == [Constant(0.25), Constant(1.0), Constant(0.625)]

    def test_rich_family_recipe(self):
        fam = enumerate_family(B, 3)
        consts = [s for s in fam if isinstance(s, Constant)]
        switches = [s for s in fam if isinstance(s, BangBangInTime)]
        assert [c.v for c in consts] == [0.25, 1.0, 0.4375, 0.625, 0.8125]
        assert len(switches) == 2
        assert switches[0].times == (5.0, 10.0)
        assert switches[0].levels == (1.0, 0.25)
        assert switches[1].times == (5.0, 10.0, 15.0)
        assert switches[1].levels == (1.0, 0.25, 1.0)

    def test_switches_count_from_t0(self):
        """The switchers of a run from t0 switch at t0 + 5, t0 + 10, ...;
        from t0 = 0 the family is the default one."""
        switches = [s for s in enumerate_family(B, 3, t0=100.0)
                    if isinstance(s, BangBangInTime)]
        assert [s.times for s in switches] == [(105.0, 110.0), (105.0, 110.0, 115.0)]
        assert [s.label() for s in switches] == [
            "bangbang_t:1@105,0.25@110", "bangbang_t:1@105,0.25@110,1@115"]
        assert enumerate_family(B, 3, t0=0.0) == enumerate_family(B, 3)

    def test_family_includes_feedback_when_energy_given(self):
        fam = enumerate_family(B, 1, lyapunov=parse("x^2"))
        assert isinstance(fam[-1], FeedbackSignVxx)

    def test_family_grows_with_richness(self):
        sizes = [len(enumerate_family(B, r)) for r in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_richness_validation(self):
        with pytest.raises(ValueError):
            enumerate_family(B, 0)

    def test_degenerate_band_lists_each_label_once(self):
        """With sigma_lower = sigma_upper = 0.7 the five constants share one
        label; the first is kept, and the switching schedules, whose labels
        differ, follow in order."""
        fam = enumerate_family(AmbiguityBounds(0.7, 0.7), 3)
        v = 0.7 * 0.7
        assert fam == [
            Constant(v),
            BangBangInTime((5.0, 10.0), (v, v)),
            BangBangInTime((5.0, 10.0, 15.0), (v, v, v)),
        ]
        assert len({s.label() for s in fam}) == len(fam)


class TestTextualForms:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("constant:0.25", Constant(0.25)),
            ("bangbang_t:1@2,0.25@5", BangBangInTime((2.0, 5.0), (1.0, 0.25))),
            ("bangbang_x:0,0.25,1", BangBangInX(0.0, 0.25, 1.0)),
            ("piecewise_random:dwell=0.5", PiecewiseRandom(0.5)),
            (" constant : 0.5 ", Constant(0.5)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_scenario(text) == expected

    def test_label_round_trip(self):
        for s in (
            Constant(0.625),
            BangBangInTime((5.0, 10.0), (1.0, 0.25)),
            BangBangInX(0.5, 0.25, 1.0),
            PiecewiseRandom(0.75),
            FeedbackSignVxx(parse("x^2")),
        ):
            assert parse_scenario(s.label(), lyapunov=parse("x^2")) == s

    def test_feedback_requires_energy(self):
        with pytest.raises(ScenarioError, match="energy"):
            parse_scenario("feedback_vxx")
        s = parse_scenario("feedback_vxx", lyapunov=parse("x^2"))
        assert isinstance(s, FeedbackSignVxx)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("constant:abc", "bad scenario text 'constant:abc': "
             "could not convert string to float: 'abc'"),
            ("constant", "bad scenario text 'constant': "
             "could not convert string to float: ''"),
            ("constant:nan", "bad scenario text 'constant:nan': "
             "scenario parameters must not be nan"),
            ("bangbang_t:1,2", "bad scenario text 'bangbang_t:1,2': "
             "expected level@time, got '1'"),
            ("bangbang_t:", "bad scenario text 'bangbang_t:': "
             "expected level@time, got ''"),
            ("bangbang_t:1@2,0.5@1", "bad scenario text 'bangbang_t:1@2,0.5@1': "
             "switch times must be strictly increasing"),
            ("bangbang_x:1,2", "bad scenario text 'bangbang_x:1,2': "
             "not enough values to unpack (expected 3, got 2)"),
            ("feedback_vxx:1", "bad scenario text 'feedback_vxx:1': "
             "feedback_vxx takes no parameters"),
            ("feedback_vxx", "feedback_vxx requires a registered energy function"),
            ("piecewise_random:0.5", "bad scenario text 'piecewise_random:0.5': "
             "expected dwell=<value>, got '0.5'"),
            ("piecewise_random:dwell=0", "bad scenario text "
             "'piecewise_random:dwell=0': dwell must be positive"),
            ("nonsense:1", "unknown scenario kind 'nonsense'"),
        ],
    )
    def test_bad_forms(self, text, message):
        """Each refusal is a ScenarioError with one pinned message."""
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == message


def test_input_rules_have_one_owner():
    """scenario alone spells the run-grid rule and the Philox key and step
    limits, lyapunov's check grid has no time rule of its own, config
    spells no certificate key that lyapunov's table names and no grid or
    numerics key, in the package only estimator._run_grid and config.build_run
    use uniform_grid, and a refusal becomes a ConfigError in one place: in
    config only the helper _refused catches, in cli only main.  cli spells
    no input rule: it names no rule of scenario or estimator, nor _refused,
    and builds a check with config.build_check, naming none of the
    builders it runs, since config alone knows which keys each reads."""
    src = Path(gsde.__file__).resolve().parent
    modules = {p.stem: p.read_text() for p in sorted(src.glob("*.py"))}
    offenders = [
        name for name, text in modules.items()
        if name != "scenario" and re.search(
            r"too many steps|must not exceed|1 << 64|1 << 53"
            r"|\b(SEED_LIMIT|PATH_LIMIT|MAX_STEPS)\b", text)
    ]
    assert offenders == []
    spelled = set(re.findall(r"certificate\.(\w+)", modules["config"]))
    assert spelled <= {"theorem", "nu_coeffs"}
    assert re.findall(r"\b(?:grid|numerics)\.\w+", modules["config"]) == []
    assert "strictly increasing" not in modules["lyapunov"]
    assert "_check_grid(self.ts)" in modules["lyapunov"]
    users, catchers = [], []
    for name, text in modules.items():
        for fn in ast.parse(text).body:
            where = f"{name}.{getattr(fn, 'name', None)}"
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id == "uniform_grid":
                    users.append(where)
                if isinstance(node, ast.ExceptHandler) and name in ("config", "cli"):
                    catchers.append(where)
    assert sorted(users) == ["config.build_run", "estimator._run_grid"]
    assert sorted(set(catchers)) == ["cli.main", "config._refused"]
    assert re.findall(r"\b(?:_refused|check_streams|uniform_grid|check_x0)\b",
                      modules["cli"]) == []
    assert "build_check(" in modules["cli"]
    assert re.findall(r"\bbuild_(?:bounds|sde|lyapunov|certificate|grid)\b",
                      modules["cli"]) == []


def test_each_kind_is_one_class():
    """KINDS lists every VolatilityScenario subclass once, under the prefix
    of its label(), and scenario.py tests no kind with isinstance except
    check_levels: a kind's parse and variance stream live on its class."""
    import gsde.scenario as sc

    samples = [
        Constant(0.625),
        BangBangInTime((5.0, 10.0), (1.0, 0.25)),
        BangBangInX(0.5, 0.25, 1.0),
        FeedbackSignVxx(parse("x^2")),
        PiecewiseRandom(0.75),
    ]
    kinds = sc.KINDS
    assert len(set(kinds.values())) == len(kinds)
    assert set(kinds.values()) == set(sc.VolatilityScenario.__subclasses__())
    assert {s.label().partition(":")[0]: type(s) for s in samples} == kinds
    users = [
        fn.name
        for fn in ast.parse(Path(sc.__file__).read_text()).body
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
    ]
    assert users == ["check_levels"]
