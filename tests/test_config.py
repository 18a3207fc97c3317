"""Config parsing and object builders."""

import pytest

from gsde.config import (
    ConfigError,
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
from gsde.scenario import BangBangInTime, Constant

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
