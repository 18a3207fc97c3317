"""Config parsing and object builders."""

import re

import numpy as np
import pytest

from gsde.config import (
    KNOWN_KEYS,
    ConfigError,
    Numerics,
    build_bounds,
    build_certificate,
    build_grid,
    build_lyapunov,
    build_numerics,
    build_scenarios,
    build_sde,
    load_config,
    parse_config_text,
)
from gsde.expr import parse
from gsde.lyapunov import CheckGrid
from gsde.scenario import BangBangInTime, Constant, FeedbackSignVxx

BASE = """
# canonical case
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -x
sde.g = x
sde.x0 = 1.0
"""


class TestParsing:
    def test_basic(self):
        cfg = parse_config_text(BASE)
        assert cfg["sde.f"] == "-x"
        assert cfg["ambiguity.sigma_lower"] == "0.5"

    def test_comments_blanks_quotes(self):
        cfg = parse_config_text(
            '# comment\n\nsde.f = "-x*t"\nsde.g = \'x\'\n'
        )
        assert cfg["sde.f"] == "-x*t"
        assert cfg["sde.g"] == "x"

    def test_known_keys(self):
        """The certificate keys come from lyapunov's parameter table; the
        key set stays the same."""
        names = ("theorem", "p", "lambda", "rho", "kappa", "eta", "q",
                 "beta_exp", "phi", "phi1", "phi2", "nu_coeffs")
        assert len(KNOWN_KEYS) == 35
        assert {k for k in KNOWN_KEYS if k.startswith("certificate.")} == {
            f"certificate.{n}" for n in names}

    def test_later_assignment_wins(self):
        cfg = parse_config_text("sde.x0 = 1\nsde.x0 = 2\n")
        assert cfg["sde.x0"] == "2"

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*bogus"):
            parse_config_text("sde.f = x\nbogus.key = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_values_may_contain_equals(self):
        cfg = parse_config_text("scenarios.list = piecewise_random:dwell=0.5\n")
        assert cfg["scenarios.list"] == "piecewise_random:dwell=0.5"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")


class TestBuilders:
    def test_bounds(self):
        b = build_bounds(parse_config_text(BASE))
        assert b.v_lower == 0.25
        assert b.v_upper == 1.0

    def test_bounds_required(self):
        with pytest.raises(ConfigError, match="sigma"):
            build_bounds(parse_config_text("sde.f = x\n"))

    def test_bounds_order_checked(self):
        with pytest.raises(ConfigError):
            build_bounds(
                parse_config_text(
                    "ambiguity.sigma_lower = 2\nambiguity.sigma_upper = 1\n"
                )
            )

    def test_sde(self):
        spec = build_sde(parse_config_text(BASE))
        assert spec.x0 == 1.0
        assert spec.t0 == 0.0

    def test_sde_missing_field(self):
        with pytest.raises(ConfigError, match="sde.x0"):
            build_sde(parse_config_text("sde.f = x\nsde.g = x\n"))

    def test_sde_bad_expression(self):
        with pytest.raises(ConfigError, match="sde.f"):
            build_sde(
                parse_config_text("sde.f = x +\nsde.g = x\nsde.x0 = 1\n")
            )

    def test_lyapunov_optional(self):
        assert build_lyapunov(parse_config_text(BASE)) is None
        lyap = build_lyapunov(parse_config_text("lyapunov.v = x^2\n"))
        assert lyap is not None

    def test_certificate_lambda_key(self):
        cfg = parse_config_text(
            BASE
            + "certificate.theorem = T33\ncertificate.p = 2\n"
            + "certificate.lambda = 0.5\n"
        )
        cert = build_certificate(cfg, build_bounds(cfg))
        assert cert.theorem == "T33"
        assert cert.lam == 0.5

    def test_certificate_validation_is_config_error(self):
        cfg = parse_config_text(
            BASE
            + "certificate.theorem = T34\ncertificate.p = 2\n"
            + "certificate.lambda = 0.5\ncertificate.rho = 4\n"
            + "certificate.kappa = 1\ncertificate.phi = 1\n"
        )
        # lam = v_lower*rho/2 exactly: standing assumption violated
        with pytest.raises(ConfigError, match="T34"):
            build_certificate(cfg, build_bounds(cfg))

    def test_certificate_nu_coeffs(self):
        cfg = parse_config_text(
            "ambiguity.sigma_lower = 1\nambiguity.sigma_upper = 1\n"
            "certificate.theorem = T35\ncertificate.p = 2\n"
            "certificate.lambda = 1\ncertificate.nu_coeffs = 400, 1\n"
        )
        cert = build_certificate(cfg, build_bounds(cfg))
        assert cert.nu_coeffs == (400.0, 1.0)

    # a valid certificate per template; each case below breaks one key
    CERTS = {
        "T33": "p = 2\nlambda = 1",
        "T34": "p = 2\nlambda = -1\nrho = 4\nkappa = 1\nphi = 1",
        "T35": "p = 2\nlambda = 1\nnu_coeffs = 400,1",
        "T36": "p = 2\nlambda = 1\neta = 1\nq = 1\nbeta_exp = 0\nphi = 1",
        "T37": "p = 2\nlambda = 1\neta = 1\nq = 1\nbeta_exp = 0\n"
               "phi1 = 1\nphi2 = 1",
    }

    @pytest.mark.parametrize(
        "theorem, key, value, message",
        [
            ("T33", "p", "nan", "p must be finite"),
            ("T33", "p", "inf", "p must be finite"),
            ("T33", "p", "0", "p must be positive"),
            ("T33", "lambda", "nan", "lambda must be finite"),
            ("T33", "lambda", "-inf", "lambda must be finite"),
            ("T33", "lambda", "-1", "lambda must be positive"),
            ("T34", "rho", "nan", "rho must be finite"),
            ("T34", "rho", "inf", "rho must be finite"),
            ("T34", "rho", "-1", "rho must be nonnegative"),
            ("T34", "kappa", "nan", "kappa must be finite"),
            ("T34", "kappa", "inf", "kappa must be finite"),
            ("T34", "kappa", "0", "kappa must be positive"),
            ("T36", "eta", "nan", "eta must be finite"),
            ("T36", "eta", "inf", "eta must be finite"),
            ("T36", "eta", "0", "eta must be positive"),
            ("T37", "q", "nan", "q must be finite"),
            ("T37", "q", "inf", "q must be finite"),
            ("T37", "q", "0", "q must be positive"),
            ("T36", "beta_exp", "nan", "beta_exp must lie in [0, 1)"),
            ("T36", "beta_exp", "inf", "beta_exp must lie in [0, 1)"),
            ("T36", "beta_exp", "1", "beta_exp must lie in [0, 1)"),
            ("T34", "phi", "x", "certificate.phi: unexpected variable(s) x"),
            ("T37", "phi1", "x", "certificate.phi1: unexpected variable(s) x"),
            ("T37", "phi2", "1+x", "certificate.phi2: unexpected variable(s) x"),
            ("T35", "nu_coeffs", "400", "nu must have degree >= 1"),
            ("T35", "nu_coeffs", "400,-1",
             "nu coefficients must be positive and finite"),
            ("T35", "nu_coeffs", "400,nan",
             "nu coefficients must be positive and finite"),
            ("T35", "p", "", "missing required key 'certificate.p'"),
            ("T34", "rho", "", "T34 needs fields rho"),
            ("T36", "q", "two", "certificate.q: not a number: 'two'"),
        ],
    )
    def test_certificate_single_fault_message(self, theorem, key, value, message):
        """A certificate with one bad key gets exactly this config error (an
        empty value drops the key)."""
        def build(lines):
            text = BASE + f"certificate.theorem = {theorem}\n" + "".join(
                f"certificate.{line}\n" for line in lines if not line.endswith("= ")
            )
            cfg = parse_config_text(text)
            return build_certificate(cfg, build_bounds(cfg))

        lines = self.CERTS[theorem].split("\n")
        build(lines)
        with pytest.raises(ConfigError) as err:
            build([ln for ln in lines if not ln.startswith(f"{key} =")]
                  + [f"{key} = {value}"])
        assert str(err.value) == message

    def test_scenarios_list(self):
        cfg = parse_config_text(
            BASE + "scenarios.list = constant:0.25; bangbang_t:1@5,0.25@10\n"
        )
        out = build_scenarios(cfg, build_bounds(cfg))
        assert out == [
            Constant(0.25),
            BangBangInTime((5.0, 10.0), (1.0, 0.25)),
        ]

    def test_scenarios_richness_default(self):
        cfg = parse_config_text(BASE)
        out = build_scenarios(cfg, build_bounds(cfg))
        assert len(out) == 7  # richness 3 recipe

    def test_scenarios_read_lyapunov_v(self):
        """feedback_vxx gets V from lyapunov.v, in a list and in the
        generated family alike."""
        v = "lyapunov.v = (1+exp(-t))*x^2+x^4\n"
        cfg = parse_config_text(BASE + v + "scenarios.list = feedback_vxx\n")
        assert build_scenarios(cfg, build_bounds(cfg)) == [
            FeedbackSignVxx(parse("(1+exp(-t))*x^2+x^4"))
        ]
        cfg = parse_config_text(BASE + v + "scenarios.richness = 1\n")
        assert build_scenarios(cfg, build_bounds(cfg))[-1] == FeedbackSignVxx(
            parse("(1+exp(-t))*x^2+x^4")
        )
        cfg = parse_config_text(BASE + "scenarios.list = feedback_vxx\n")
        with pytest.raises(ConfigError, match="energy function"):
            build_scenarios(cfg, build_bounds(cfg))

    def test_scenarios_exclusive(self):
        cfg = parse_config_text(
            BASE + "scenarios.list = constant:1\nscenarios.richness = 2\n"
        )
        with pytest.raises(ConfigError, match="not both"):
            build_scenarios(cfg, build_bounds(cfg))

    def test_scenarios_bad_text(self):
        cfg = parse_config_text(BASE + "scenarios.list = constant:abc\n")
        with pytest.raises(ConfigError):
            build_scenarios(cfg, build_bounds(cfg))

    def test_grid_defaults_and_overrides(self):
        grid = build_grid(parse_config_text(""), t0=0.0)
        assert grid.xs.size == 400
        grid2 = build_grid(
            parse_config_text("grid.x_points = 10\ngrid.t_points = 5\n"), t0=1.0
        )
        assert grid2.xs.size == 20
        assert grid2.ts.size == 5
        assert grid2.ts[0] == 1.0

    def test_defaults_have_one_owner(self):
        """An absent grid.* or numerics.* key takes the default of what it
        builds: CheckGrid.default's argument or the Numerics field."""
        grid = build_grid(parse_config_text(""), t0=0.5)
        default = CheckGrid.default(t0=0.5)
        np.testing.assert_array_equal(grid.xs, default.xs)
        np.testing.assert_array_equal(grid.ts, default.ts)
        assert build_numerics(parse_config_text("")) == Numerics()
        assert build_numerics(
            parse_config_text("numerics.method = milstein\n")
        ) == Numerics(method="milstein")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("grid.t_points = 1", "at least 2 points"),
            ("grid.t_points = 0", "at least 2 points"),
            ("grid.t_span = 1e-20", "strictly increasing"),
            ("grid.x_points = 0", "grid.x_points must be >= 1"),
            ("grid.x_points = -1", "grid.x_points must be >= 1"),
            ("grid.t_points = -1", "grid.t_points must not be negative"),
            ("grid.x_points = 2.5", "grid.x_points: not an integer: '2.5'"),
        ],
    )
    def test_grid_refusals(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_grid(parse_config_text(text + "\n"), t0=1.0)

    def test_numerics_defaults(self):
        num = build_numerics(parse_config_text(""))
        assert num.dt == 1e-3
        assert num.horizon == 200.0
        assert num.n_paths == 500
        assert num.seed == 0
        assert num.method == "euler"

    def test_numerics_validation(self):
        with pytest.raises(ConfigError, match="n_paths"):
            build_numerics(parse_config_text("numerics.n_paths = 0\n"))
        with pytest.raises(ConfigError, match="method"):
            build_numerics(parse_config_text("numerics.method = rk4\n"))
        with pytest.raises(ConfigError, match="not an integer"):
            build_numerics(parse_config_text("numerics.n_paths = ten\n"))
        # Philox keys hold 2^56 path indices
        assert build_numerics(
            parse_config_text(f"numerics.n_paths = {2**56}\n")).n_paths == 2**56
        with pytest.raises(ConfigError, match=r"n_paths must be <= 2\^56"):
            build_numerics(parse_config_text(f"numerics.n_paths = {2**56 + 1}\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("numerics.dt = 2\nnumerics.horizon = 1", "must not exceed"),
            ("numerics.dt = 1e-300", "too many steps"),
            ("numerics.horizon = 1e300", "too many steps"),
            ("numerics.dt = 1e-300\nnumerics.horizon = 1e300", "too many steps"),
        ],
    )
    def test_numerics_step_count(self, text, message):
        """dt may not exceed the horizon, and the step count must fit; both
        are checked on the numbers, before any grid is built."""
        with pytest.raises(ConfigError, match=message):
            build_numerics(parse_config_text(text + "\n"))
