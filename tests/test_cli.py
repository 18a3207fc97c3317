"""End-to-end CLI checks driven through main()."""

import gc
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsde
from gsde import cli, config
from gsde.cli import main
from gsde.config import KNOWN_KEYS, build_check, build_sweep, load_config
from gsde.expr import to_source
from gsde.lyapunov import (
    _TEMPLATES, CERT_PARAMS, CheckGrid, LyapunovFn, OperatorSample, SampleHolder,
    check_certificate,
)

from conftest import any_exprs

CERT_GRANT = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -1.5*x
sde.g = x
sde.x0 = 1.0
lyapunov.v = x^2
certificate.theorem = T33
certificate.p = 2
certificate.lambda = 1.0
"""

# decay margin for f = -1.5x over v in [0.25, 1] tops out at 2, so 2.5 fails
CERT_WITHHELD = CERT_GRANT.replace(
    "certificate.lambda = 1.0", "certificate.lambda = 2.5"
)

EXPONENT = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -x
sde.g = x
sde.x0 = 1.0
scenarios.richness = 1
numerics.dt = 0.01
numerics.horizon = 20
numerics.n_paths = 20
"""

SIMULATE = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -x
sde.g = x
sde.x0 = 1.0
scenarios.list = bangbang_t:1@5,0.25@10
numerics.dt = 0.01
numerics.horizon = 2
numerics.n_paths = 3
"""

SWEEP = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -{alpha}*x
sde.g = x
sde.x0 = 1.0
lyapunov.v = x^2
certificate.theorem = T33
certificate.p = 2
sweep.parameter = alpha
sweep.values = 0.3, 0.4, 0.5, 0.6, 0.7, 0.8
"""


# A config every subcommand runs in well under a second (sweep adds its
# placeholder); every count in it is at most 10, so no fault value below
# can size a large array.
FAULT_BASE = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -x
sde.g = x
sde.x0 = 1.0
lyapunov.v = x^2
certificate.theorem = T33
certificate.p = 2
scenarios.list = constant:1
numerics.dt = 0.1
numerics.horizon = 1
numerics.n_paths = 2
grid.x_points = 5
grid.t_points = 5
"""

FAULT_VALUES = [
    "", "nan", "inf", "-inf", "1e400", "-1", "0", "1", "1e-300", "1e300",
    "x", "t", "log(x)", "x^0.5", "1/x", "{a}", "T38", "constant:nan",
    "feedback_vxx", "true", "1,2",
]


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "nonsense.key = 1\n")
        assert main(["certify", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "no.cfg")]) == 2

    def test_undecodable_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["certify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfg}")

    def test_runtime_error_is_3(self, tmp_path, capsys):
        # log(x) on the certify grid hits x < 0: domain failure at run time
        cfg = write(
            tmp_path,
            CERT_GRANT.replace("lyapunov.v = x^2", "lyapunov.v = log(x)*x^2"),
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "error" in capsys.readouterr().err

    def test_lipschitz_key_is_unknown(self, tmp_path, capsys):
        cfg = write(tmp_path, CERT_GRANT + "sde.lipschitz = 1e-4\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown key 'sde.lipschitz'" in capsys.readouterr().err

    def test_infinite_dt_is_config_error(self, tmp_path):
        cfg = write(
            tmp_path, EXPONENT.replace("numerics.dt = 0.01", "numerics.dt = 0.5e400")
        )
        assert main(["exponent", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_nan_horizon_is_config_error(self, tmp_path):
        cfg = write(
            tmp_path,
            EXPONENT.replace("numerics.horizon = 20", "numerics.horizon = nan"),
        )
        assert main(["exponent", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, scenario",
        [
            ("simulate", "constant:nan"),
            ("simulate", "bangbang_t:nan@0.5,1@2"),
            ("simulate", "bangbang_t:1@nan"),
            ("simulate", "bangbang_x:nan,1,1"),
            ("simulate", "bangbang_x:0,nan,1"),
            ("exponent", "constant:nan"),
        ],
    )
    def test_nan_scenario_is_config_error(self, tmp_path, capsys, command, scenario):
        """np.clip keeps nan, so a nan rate or switch point would get past
        the band; it is rejected when the scenario is built."""
        cfg = write(tmp_path, SIMULATE.replace("bangbang_t:1@5,0.25@10", scenario))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "must not be nan" in capsys.readouterr().err

    def test_infinite_rate_clamps_to_upper_edge(self, tmp_path):
        cfg = write(tmp_path, SIMULATE.replace("bangbang_t:1@5,0.25@10", "constant:inf"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "path_000.csv").read_text().splitlines()[1:]
        assert {row.split(",")[2] for row in rows} == {"1"}

    @pytest.mark.parametrize(
        "command, x0, t0",
        [
            ("simulate", "nan", "0"),
            ("simulate", "inf", "0"),
            ("simulate", "1.0", "nan"),
            ("exponent", "1.0", "nan"),
            ("exponent", "-inf", "0"),
        ],
    )
    def test_nonfinite_start_is_config_error(self, tmp_path, capsys, command, x0, t0):
        cfg = write(
            tmp_path, SIMULATE.replace("sde.x0 = 1.0", f"sde.x0 = {x0}\nsde.t0 = {t0}")
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "sde.x0 and sde.t0 must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("certificate.lambda = inf", "lambda must be finite"),
            ("certificate.p = inf", "p must be finite"),
            ("grid.x_max = inf", "finite t_span"),
            ("grid.t_span = inf", "finite t_span"),
            ("grid.t_span = nan", "finite t_span"),
            ("grid.t_span = 0", "finite t_span"),
            ("grid.t_span = -5", "finite t_span"),
            ("certificate.theorem = T34\ncertificate.lambda = -1\n"
             "certificate.rho = inf\ncertificate.kappa = 1\ncertificate.phi = 1",
             "rho must be finite"),
            ("certificate.theorem = T34\ncertificate.lambda = -inf\n"
             "certificate.rho = 4\ncertificate.kappa = 1\ncertificate.phi = 1",
             "lambda must be finite"),
            ("certificate.theorem = T38\ncertificate.lambda = 2\n"
             "certificate.rho = 1\ncertificate.kappa = inf\ncertificate.phi = 1",
             "kappa must be finite"),
            ("certificate.theorem = T35\ncertificate.nu_coeffs = 400,inf",
             "nu coefficients must be positive and finite"),
            ("certificate.theorem = T36\ncertificate.eta = inf\ncertificate.q = 1\n"
             "certificate.beta_exp = 0\ncertificate.phi = 1",
             "eta must be finite"),
            ("certificate.theorem = T37\ncertificate.eta = 1\ncertificate.q = inf\n"
             "certificate.beta_exp = 0\ncertificate.phi1 = 1\ncertificate.phi2 = 0",
             "q must be finite"),
        ],
    )
    def test_nonfinite_certificate_is_config_error(
        self, tmp_path, capsys, recwarn, extra, message
    ):
        """A non-finite certificate or grid parameter, or an empty or
        reversed time grid (which would grant T33 on nothing), exits 2 with
        one line on stderr, before numpy sees it."""
        cfg = write(tmp_path, CERT_GRANT + extra + "\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert message in err[0]
        assert not recwarn.list, [str(w.message) for w in recwarn.list]

    @pytest.mark.parametrize("command", ["exponent", "simulate"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            ("numerics.dt = 1e-300", "too many steps"),
            ("numerics.horizon = 1e300", "too many steps"),
            ("numerics.dt = 2\nnumerics.horizon = 1", "must not exceed"),
            ("sde.t0 = 1e300", "strictly increasing"),
            ("sde.t0 = 1.7e308\nnumerics.horizon = 1e308\nnumerics.dt = 1e307",
             "finite and strictly increasing"),
            ("scenarios.list = piecewise_random:dwell=1e-300",
             "piecewise_random:dwell=1e-300: dwell"),
        ],
    )
    def test_unbuildable_run_grid_is_config_error(
        self, tmp_path, capsys, recwarn, command, extra, message
    ):
        """A time grid or a level count that cannot be built exits 2 with
        one line on stderr; each fails before a path array is sized."""
        cfg = write(tmp_path, SIMULATE + extra + "\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert message in err[0]
        assert not recwarn.list, [str(w.message) for w in recwarn.list]

    @pytest.mark.parametrize("command", ["exponent", "simulate"])
    @pytest.mark.parametrize("horizon", ["1", "0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("dt", ["0", "nan", "inf", "2h", "1e-300"])
    def test_bad_run_grid_is_config_error(
        self, tmp_path, capsys, recwarn, command, horizon, dt
    ):
        """Every horizon and dt that no uniform grid can hold exits 2 with
        one line on stderr naming the broken rule, and no warning."""
        if dt == "2h":
            dt = repr(2 * float(horizon))
        message = {("1", "2.0"): "numerics.dt must not exceed numerics.horizon",
                   ("1", "1e-300"): "numerics.horizon / numerics.dt: too many steps"}
        cfg = write(tmp_path, SIMULATE + f"numerics.horizon = {horizon}\n"
                    f"numerics.dt = {dt}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: " + message.get(
            (horizon, dt),
            "numerics.dt and numerics.horizon must be positive and finite")]
        assert not recwarn.list, [str(w.message) for w in recwarn.list]

    def test_n_paths_beyond_path_index_is_config_error(self, tmp_path, capsys):
        """Philox keys hold 2^56 path indices; a larger numerics.n_paths
        exits 2 before any path is run."""
        cfg = write(tmp_path, EXPONENT + f"numerics.n_paths = {2**56 + 1}\n")
        assert main(["exponent", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: numerics.n_paths must be <= 2^56"]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_config_seed_out_of_range(self, tmp_path, seed):
        cfg = write(tmp_path, EXPONENT + f"numerics.seed = {seed}\n")
        assert main(["exponent", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_flag_out_of_range(self, tmp_path, seed):
        cfg = write(tmp_path, EXPONENT)
        argv = ["exponent", "--config", cfg, "--seed", str(seed)]
        assert main(argv + ["--out", str(tmp_path)]) == 2

    def test_seed_flag_refused_before_the_config_is_read(self, tmp_path, capsys):
        argv = ["exponent", "--config", str(tmp_path / "absent.cfg"), "--seed", "-1"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: --seed must lie in [0, 2^64)"]

    def test_seed_flag_replaces_a_bad_config_seed(self, tmp_path):
        """The flag replaces numerics.seed, so a file seed it replaces is
        never read: the run writes the bytes of the flag's seed."""
        bad = write(tmp_path, EXPONENT + "numerics.seed = -1\n", "bad.cfg")
        good = write(tmp_path, EXPONENT + "numerics.seed = 9\n", "good.cfg")
        assert main(["exponent", "--config", bad, "--seed", "9",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["exponent", "--config", good, "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "exponent.csv").read_bytes()
                == (tmp_path / "b" / "exponent.csv").read_bytes())

    @pytest.mark.parametrize(
        "command, base, extra, flags, message",
        [
            ("exponent", EXPONENT, "sde.x0 = abc", [],
             "sde.x0: not a number: 'abc'"),
            ("exponent", EXPONENT, "numerics.n_paths = 2.5", [],
             "numerics.n_paths: not an integer: '2.5'"),
            ("exponent", EXPONENT, "sde.f = -x+", [],
             "sde.f: expected expression (offset 3)"),
            ("exponent", EXPONENT, "sde.f = -x*y", [],
             "sde.f: unknown identifier 'y' (offset 3)"),
            ("exponent", EXPONENT, "ambiguity.sigma_lower = 2", [],
             "need 0 < sigma_lower <= sigma_upper, got (2.0, 1.0)"),
            ("simulate", SIMULATE, "ambiguity.sigma_upper = 1e300\n"
             "scenarios.list = piecewise_random:dwell=1", [],
             "sigma_upper^2 overflows, got sigma_upper = 1e+300"),
            ("certify", CERT_GRANT,
             "certificate.theorem = T35\ncertificate.nu_coeffs = 400,abc", [],
             "certificate.nu_coeffs: could not convert string to float: 'abc'"),
            ("certify", CERT_GRANT,
             "certificate.theorem = T35\ncertificate.nu_coeffs = ,", [],
             "certificate.nu_coeffs: empty coefficient list"),
            ("certify", CERT_GRANT, "certificate.p = -1", [],
             "p must be positive"),
            ("certify", CERT_GRANT, "certificate.theorem = T99", [],
             "unknown certificate template 'T99'"),
            ("exponent", EXPONENT, "scenarios.richness = 0", [],
             "richness must be >= 1"),
            ("simulate", SIMULATE, "scenarios.list = bogus:1", [],
             "unknown scenario kind 'bogus'"),
            ("simulate", SIMULATE, "scenarios.list = constant:abc", [],
             "bad scenario text 'constant:abc': "
             "could not convert string to float: 'abc'"),
            ("simulate", SIMULATE, "scenarios.list = feedback_vxx", [],
             "feedback_vxx requires a registered energy function"),
            ("simulate", SIMULATE, "scenarios.list = constant:0.5;constant:1", [],
             "simulate needs exactly one scenario, got 2"),
            ("certify", CERT_GRANT, "grid.x_min = 0", [],
             "need 0 < x_min < x_max and a finite t_span > 0"),
            ("exponent", EXPONENT, "numerics.seed = -1", [],
             "numerics.seed must lie in [0, 2^64)"),
            ("exponent", EXPONENT, f"numerics.seed = {2**64}", [],
             "numerics.seed must lie in [0, 2^64)"),
            ("exponent", EXPONENT, "numerics.n_paths = 0", [],
             "numerics.n_paths must be >= 1"),
            ("exponent", EXPONENT, "numerics.method = rk4", [],
             "numerics.method must be one of ('euler', 'milstein')"),
            ("exponent", EXPONENT, "sde.t0 = 1e300", [],
             "sde.t0 + numerics.horizon: the time grid must be finite and "
             "strictly increasing"),
            ("simulate", SIMULATE, "scenarios.list = piecewise_random:dwell=1e-300",
             [], "piecewise_random:dwell=1e-300: dwell too small for "
             "numerics.horizon"),
            ("sweep", SWEEP, "sweep.values = 0.3, oops", [],
             "sweep.values: could not convert string to float: ' oops'"),
            ("sweep", SWEEP, "sweep.values = ,", [],
             "sweep.values: no values given"),
            ("exponent", EXPONENT, "", ["--seed", "-1"],
             "--seed must lie in [0, 2^64)"),
            ("simulate", SIMULATE, "", ["--seed", "-1"],
             "--seed must lie in [0, 2^64)"),
            ("simulate", SIMULATE, "", ["--seed", str(2**64)],
             "--seed must lie in [0, 2^64)"),
            ("sweep", SWEEP + "sweep.estimate = true\nscenarios.list = constant:1"
             "\nnumerics.horizon = 1\nnumerics.dt = 0.1\nnumerics.n_paths = 2",
             "", ["--seed", "-1"], "--seed must lie in [0, 2^64)"),
            ("certify", CERT_GRANT, "grid.t_points = 1", [],
             "the time grid must be one-dimensional with at least 2 points"),
            ("sweep", SWEEP, "grid.t_points = 1", [],
             "the time grid must be one-dimensional with at least 2 points"),
            ("certify", CERT_GRANT, "sde.t0 = 1e300", [],
             "the time grid must be finite and strictly increasing"),
            ("sweep", SWEEP, "sde.t0 = 1e300", [],
             "the time grid must be finite and strictly increasing"),
            ("sweep", SWEEP, "sweep.parameter = zz", [],
             "sweep.parameter: no config value contains {zz}"),
            # output.dir is made once, before any point: it sweeps nothing
            ("sweep", CERT_GRANT.replace("-1.5*x", "-x").replace(
                "lambda = 1.0", "lambda = 0.5"), "output.dir = out_{a}\n"
             "sweep.parameter = a\nsweep.values = 1, 2, 3", [],
             "sweep.parameter: no config value contains {a}"),
            ("certify", CERT_GRANT, "grid.x_points = -1", [],
             "grid.x_points must be >= 1"),
            ("certify", CERT_GRANT, "grid.t_points = -1", [],
             "grid.t_points must not be negative"),
            ("certify", CERT_GRANT, "grid.x_points = 0", [],
             "grid.x_points must be >= 1"),
            ("exponent", EXPONENT, "sde.x0 = 0", [],
             "sde.x0 must be nonzero (rates normalize by |x0|)"),
            ("sweep", SWEEP + "sweep.estimate = true\nscenarios.list = constant:1"
             "\nnumerics.horizon = 1\nnumerics.dt = 0.1\nnumerics.n_paths = 2\n",
             "sde.x0 = 0", [], "sde.x0 must be nonzero (rates normalize by |x0|)"),
            ("exponent", EXPONENT, "sde.f = -x+0*sin(1e400)", [],
             "sde.f: number 1e400 is not finite (offset 9)"),
            ("certify", CERT_GRANT, "certificate.theorem = T34\ncertificate.rho = 10"
             "\ncertificate.kappa = 1\ncertificate.phi = 1e400", [],
             "certificate.phi: number 1e400 is not finite (offset 0)"),
            ("sweep", SWEEP, "sweep.values = 1,nan", [],
             "sweep.values: every value must be finite"),
            ("sweep", SWEEP, "sweep.values = 1,inf", [],
             "sweep.values: every value must be finite"),
            ("sweep", SWEEP, "sweep.values = 1,1e400", [],
             "sweep.values: every value must be finite"),
            # a value replaces its placeholder as written, so it is read
            # as the expression grammar reads a number
            ("sweep", SWEEP, "sweep.values = +1", [],
             "sweep.values: '+1' must be a decimal literal, optionally after one '-'"),
            ("sweep", CERT_GRANT, "grid.x_points = {s}\nsweep.parameter = s\n"
             "sweep.values = 1_0", [],
             "sweep.values: '1_0' must be a decimal literal, optionally after one '-'"),
            ("certify", CERT_GRANT, "certificate.rho = 1\ncertificate.kappa = 1"
             "\ncertificate.phi = 1", [], "T33 does not use rho, kappa, phi"),
            ("certify", CERT_GRANT, "certificate.theorem = T35\n"
             "certificate.nu_coeffs = 1,1\ncertificate.phi1 = 1\ncertificate.eta = 1",
             [], "T35 does not use eta, phi1"),
            ("certify", CERT_GRANT.replace("lyapunov.v = x^2\n", ""), "", [],
             "lyapunov.v is required for this command"),
            ("sweep", SWEEP.replace("lyapunov.v = x^2\n", ""), "", [],
             "lyapunov.v is required for this command"),
            # runtime refusals: exit 3 with an "error: " line
            ("certify", CERT_GRANT, "certificate.theorem = T34\ncertificate.rho = 10"
             "\ncertificate.kappa = 1\ncertificate.phi = sin(t)", [],
             "error: time weight 'sin(t)' must be nonnegative on the grid"),
            # a weight without t is one value, refused the same way
            ("certify", CERT_GRANT, "certificate.theorem = T34\ncertificate.rho = 10"
             "\ncertificate.kappa = 1\ncertificate.phi = -1", [],
             "error: time weight '-1.0' must be nonnegative on the grid"),
            ("certify", CERT_GRANT.replace("certificate.lambda = 1.0\n", ""),
             "sde.g = 1e300", [], "error: decay: -LV/V is not finite at x=-10, t=0"),
            ("certify", CERT_GRANT, "sde.g = 1e200*x", [],
             "error: decay: inf <= -100 is not finite at x=-10, t=0"),
            ("certify", CERT_GRANT, "certificate.theorem = T34\n"
             "certificate.lambda = -1e-300\ncertificate.rho = 1e-299\n"
             "certificate.kappa = 1\ncertificate.phi = 1e308", [],
             "error: time_average: extrapolated Cesaro limit nan vs required 1 "
             "is not finite"),
            # the kernel's value at the violation is finite: exp(-inf) = 0
            ("simulate", SIMULATE, "sde.f = exp(-1/x^2)\nsde.g = 1\nsde.x0 = 0\n"
             "scenarios.list = constant:1\nnumerics.dt = 0.1\n"
             "numerics.horizon = 1\nnumerics.n_paths = 1", [],
             "error: division by zero in '(-1.0)/x^2.0' at offset 6"),
            ("exponent", SIMULATE, "sde.f = -x + exp(-1/x^2)\nsde.g = 0\n"
             "sde.x0 = 1\nscenarios.list = constant:1\nnumerics.dt = 1\n"
             "numerics.horizon = 5\nnumerics.n_paths = 2", [],
             "error: division by zero in '(-1.0)/x^2.0' at offset 11"),
        ],
    )
    def test_single_fault_message(
        self, tmp_path, capsys, recwarn, command, base, extra, flags, message
    ):
        """Each single-fault refusal of the library or the config exits with
        one pinned line on stderr, nothing on stdout and no warning: 3 for a
        runtime refusal (a message given with its "error: " prefix), else 2."""
        cfg = write(tmp_path, base + extra + "\n")
        argv = [command, "--config", cfg, "--out", str(tmp_path)] + flags
        runtime = message.startswith("error: ")
        assert main(argv) == (3 if runtime else 2)
        out, err = capsys.readouterr()
        assert err.splitlines() == [message if runtime else "config error: " + message]
        assert out == ""
        assert not recwarn.list, [str(w.message) for w in recwarn.list]

    @pytest.mark.parametrize(
        "extra, flags, message",
        [
            ("output.dir = afile", [],
             "output.dir: cannot create directory: [Errno 17] File exists: 'afile'"),
            ("", ["--out", "afile/sub"],
             "--out: cannot create directory: [Errno 20] Not a directory: "
             "'afile/sub'"),
        ],
        ids=["output_dir_is_a_file", "out_below_a_file"],
    )
    def test_output_dir_that_cannot_be_made(
        self, tmp_path, monkeypatch, capsys, extra, flags, message
    ):
        """An output directory that names an existing file, or lies below
        one, is a config error naming its key, not a withheld certificate."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        cfg = write(tmp_path, CERT_GRANT + extra + "\n")
        assert main(["certify", "--config", cfg] + flags) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == ["config error: " + message]
        assert out == ""

    @pytest.mark.parametrize("command", ["certify", "exponent", "simulate", "sweep"])
    def test_every_single_key_fault_exits_with_a_contract_code(
        self, tmp_path, capsys, command
    ):
        """Every known key but output.dir, set in turn to each of a fixed
        list of values on a tiny config that runs: main returns 0, 1, 2
        or 3 and raises nothing."""
        base = FAULT_BASE
        if command == "sweep":
            base = base.replace("sde.f = -x", "sde.f = -{a}*x") + (
                "sweep.parameter = a\nsweep.values = 1\n")
        failures = []
        for key in sorted(KNOWN_KEYS - {"output.dir"}):
            for value in FAULT_VALUES:
                cfg = write(tmp_path, f"{base}{key} = {value}\n")
                try:
                    code = main([command, "--config", cfg, "--out", str(tmp_path)])
                except Exception as exc:  # the contract maps every fault to a code
                    code = repr(exc)
                if code not in (0, 1, 2, 3):
                    failures.append((key, value, code))
                capsys.readouterr()
        assert not failures

    @pytest.mark.parametrize(
        "drift, x0",
        [
            # a few paths cross x = -1.5, the rest stay in the domain
            ("-x+0.001*log(x+1.5)", "1.0"),
            # nearly every path steps below 0
            ("log(x)", "0.01"),
        ],
    )
    def test_estimator_domain_error_is_3(self, tmp_path, capsys, drift, x0):
        cfg = write(
            tmp_path,
            EXPONENT.replace("sde.f = -x", f"sde.f = {drift}")
            .replace("sde.g = x", "sde.g = 0.8")
            .replace("sde.x0 = 1.0", f"sde.x0 = {x0}")
            .replace("scenarios.richness = 1", "scenarios.list = constant:1")
            .replace("numerics.horizon = 20", "numerics.horizon = 5")
            .replace("numerics.n_paths = 20", "numerics.n_paths = 200"),
        )
        assert main(["exponent", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "log(" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["exponent", "simulate"])
    def test_feedback_vxx_domain_error_is_3(self, tmp_path, capsys, command):
        """V_xx = 2 log(x) + 3 leaves its domain once a path reaches
        x <= 0: the curvature policy must not pick a band edge from nan."""
        cfg = write(
            tmp_path,
            EXPONENT.replace("sde.g = x", "sde.g = 1")
            .replace("sde.x0 = 1.0", "sde.x0 = 0.5\nlyapunov.v = x^2*log(x)")
            .replace("scenarios.richness = 1", "scenarios.list = feedback_vxx")
            .replace("numerics.horizon = 20", "numerics.horizon = 5")
            .replace("numerics.n_paths = 20", "numerics.n_paths = 3"),
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "log(" in capsys.readouterr().err

    def test_module_entry_point_exit_code(self, tmp_path):
        """`python -m gsde.cli` runs main() and exits with its code."""
        cfg = write(tmp_path, "nonsense.key = 1\n")
        src = str(Path(gsde.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "gsde.cli", "exponent", "--config", cfg],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr


class TestCertify:
    def test_granted(self, tmp_path, capsys):
        cfg = write(tmp_path, CERT_GRANT)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "T33: granted" in text
        assert "-0.5" in text
        cert_rows = (out / "certificate.csv").read_text().splitlines()
        assert cert_rows[0].startswith("hypothesis,")
        assert len(cert_rows) == 3  # header + envelope + decay
        verdict = (out / "verdict.csv").read_text().splitlines()
        assert verdict[0] == "theorem,granted,bound,lambda,p,caveats"
        assert verdict[1].startswith("T33,true,-0.5")

    def test_withheld(self, tmp_path, capsys):
        cfg = write(tmp_path, CERT_WITHHELD)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
        assert "withheld" in capsys.readouterr().out
        verdict = (out / "verdict.csv").read_text().splitlines()
        assert verdict[1].startswith("T33,false,,")

    def test_each_call_samples_its_own_operators(self, tmp_path, evaluations):
        """Two certify calls in one process evaluate V, V_t, V_x, V_xx, f
        and g twice, as two processes do: a call holds no sample."""
        cfg = write(tmp_path, CERT_GRANT)
        for _ in range(2):
            assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(evaluations) == 2 * 6


# Euler at dt 0.1 flags almost every path of this stable SDE
FLAGGED = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -x - x^3
sde.g = x
sde.x0 = 5
scenarios.list = constant:0.25;constant:1
numerics.n_paths = 50
numerics.horizon = 20
numerics.dt = 0.1
"""


class TestExponent:
    def test_family_switches_count_from_t0(self, tmp_path):
        """The built-in switchers switch at t0 + 5, t0 + 10, ...: a run from
        t0 = 100 sees both levels of bangbang_t:1@105,0.25@110, not only the
        last level of a schedule at clock times 5 and 10."""
        cfg = write(tmp_path, EXPONENT.replace("sde.x0 = 1.0", "sde.x0 = 1\nsde.t0 = 100")
                    .replace("richness = 1", "richness = 3")
                    .replace("n_paths = 20", "n_paths = 50"))
        out = tmp_path / "out"
        assert main(["exponent", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "exponent.csv").read_text().splitlines()[1:-2]
        means = {r.rsplit(",", 7)[0].strip('"'): float(r.rsplit(",", 7)[1]) for r in rows}
        assert list(means)[5:] == ["bangbang_t:1@105,0.25@110",
                                   "bangbang_t:1@105,0.25@110,1@115"]
        assert means["constant:0.25"] == -1.1156142028683218
        assert means["bangbang_t:1@105,0.25@110"] != means["constant:0.25"]
        assert means["bangbang_t:1@105,0.25@110,1@115"] != means["constant:1"]

    def test_writes_summary_rows(self, tmp_path, capsys):
        cfg = write(tmp_path, EXPONENT)
        out = tmp_path / "out"
        assert main(["exponent", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "exponent.csv").read_text().splitlines()
        assert rows[0].startswith("scenario,mean_exponent,max_exponent")
        labels = [r.split(",")[0] for r in rows[1:]]
        assert "family_sup_mean" in labels
        assert "family_sup_max" in labels
        assert len(labels) == 3 + 2  # richness 1 family plus two summary rows
        assert "worst scenario" in capsys.readouterr().out

    def test_overflowing_drift_flags_paths(self, tmp_path):
        """exp(x) overflowing on an escaping path is an explosion, not a
        domain error: the path is flagged and the run still succeeds."""
        cfg = write(
            tmp_path,
            EXPONENT.replace("sde.f = -x", "sde.f = -x+0.1*exp(x)")
            .replace("sde.g = x", "sde.g = 1.5")
            .replace("scenarios.richness = 1", "scenarios.list = constant:1")
            .replace("numerics.horizon = 20", "numerics.horizon = 5")
            .replace("numerics.n_paths = 20", "numerics.n_paths = 200"),
        )
        out = tmp_path / "out"
        assert main(["exponent", "--config", cfg, "--out", str(out)]) == 0
        row = (out / "exponent.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "constant:1"
        assert row[5:7] == ["200", "17"]  # n_paths, n_flagged

    @pytest.mark.parametrize("command", ["exponent", "sweep"])
    def test_flagged_paths_are_reported(self, tmp_path, capsys, command):
        """Euler at dt 0.1 flags 50 and 49 of 50 paths of f = -x - x^3 from
        x0 = 5: one stderr line per scenario says so, says the statistics
        cover the survivors only, and gives the rate every flagged path
        had at its flag time, log(1e12/5)/20.  The run still exits 0 with
        the survivors' family sup.  A sweep names the point of each line:
        from x0 = 3 no path is flagged, from x0 = 4 six of constant:1's."""
        text = FLAGGED
        if command == "sweep":
            text += ("lyapunov.v = x^2\ncertificate.theorem = T33\n"
                     "certificate.p = 2\nsweep.parameter = a\n"
                     "sweep.values = 3, 4, 5\nsweep.estimate = true\n")
            text = text.replace("sde.x0 = 5", "sde.x0 = {a}")
        cfg = write(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out, err = capsys.readouterr()
        tail = ("; its statistics and the family sup cover the survivors only; "
                "a path flagged at |X| > 1e+12 had a rate of at least {} "
                "at its flag time")
        at_5 = [f"scenario constant:0.25 flagged 50 of 50 paths{tail.format(1.30108)}",
                f"scenario constant:1 flagged 49 of 50 paths{tail.format(1.30108)}"]
        if command == "exponent":
            assert err.splitlines() == [f"note: {line}" for line in at_5]
            assert out.startswith("family sup of mean rates -1.70337 "
                                  "(worst scenario constant:1)")
        else:
            assert err.splitlines() == [
                f"note: a=4: scenario constant:1 flagged 6 of 50 paths"
                f"{tail.format(1.31224)}",
                *(f"note: a=5: {line}" for line in at_5),
            ]
            assert "a=5: granted (bound -0.500001), estimated rate -1.70337" in out

    def test_no_rate_floor_from_beyond_the_threshold(self, tmp_path, capsys):
        """From |x0| >= 1e12 a flag gives no rate floor, so the line
        gives none: a first step of -x dt at dt 0.5 halves the state, and
        the noise takes 29 of 50 paths past the threshold."""
        cfg = write(tmp_path, EXPONENT.replace("sde.x0 = 1.0", "sde.x0 = 1.5e12")
                    .replace("scenarios.richness = 1", "scenarios.list = constant:1")
                    .replace("numerics.dt = 0.01", "numerics.dt = 0.5")
                    .replace("numerics.horizon = 20", "numerics.horizon = 5")
                    .replace("numerics.n_paths = 20", "numerics.n_paths = 50"))
        assert main(["exponent", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: scenario constant:1 flagged 29 of 50 paths; its statistics "
            "and the family sup cover the survivors only"]

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write(tmp_path, EXPONENT)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        main(["exponent", "--config", cfg, "--out", str(out_a)])
        main(["exponent", "--config", cfg, "--out", str(out_b)])
        main(["exponent", "--config", cfg, "--seed", "9", "--out", str(out_c)])
        a = (out_a / "exponent.csv").read_bytes()
        b = (out_b / "exponent.csv").read_bytes()
        c = (out_c / "exponent.csv").read_bytes()
        assert a == b
        assert a != c


class TestSimulate:
    def test_paths_reproducible(self, tmp_path, capsys):
        cfg = write(tmp_path, SIMULATE)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == ["path_000.csv", "path_001.csv", "path_002.csv"]
        for n in names:
            assert (out_a / n).read_bytes() == (out_b / n).read_bytes()
        header = (out_a / "path_000.csv").read_text().splitlines()[0]
        assert header == "t,W,v,B,qv,X"
        assert "3 path" in capsys.readouterr().out

    @staticmethod
    def _edge_config(tmp_path, x0, f, g, horizon, extra=""):
        return write(
            tmp_path,
            SIMULATE.replace("sde.x0 = 1.0", f"sde.x0 = {x0}")
            .replace("sde.f = -x", f"sde.f = {f}")
            .replace("sde.g = x", f"sde.g = {g}")
            .replace("bangbang_t:1@5,0.25@10", "constant:1")
            .replace("numerics.horizon = 2", f"numerics.horizon = {horizon}")
            + extra,
        )

    @pytest.mark.parametrize(
        "x0, f, g, message",
        [
            ("0", "1/x", "x", "'1.0/x'"),
            ("-1", "-x", "x^0.5", "negative base under a fractional power"),
        ],
    )
    def test_domain_error_is_3(self, tmp_path, capsys, x0, f, g, message):
        """A kernel leaving its domain on integrate's scalar state is a
        domain error (exit 3), not a Python exception from the kernel."""
        cfg = self._edge_config(tmp_path, x0, f, g, 5)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err

    def test_milstein_gx_domain_error_is_3(self, tmp_path, capsys):
        """Milstein's g_x = 2x/(2 sqrt(x^2)) is 0/0 at x0 = 0 although f
        and g are finite there: the non-finite step must be traced to the
        division, not flagged as an explosion."""
        cfg = self._edge_config(
            tmp_path, "0", "-x", "sqrt(x^2)", 2, "numerics.method = milstein\n"
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "division by zero in" in capsys.readouterr().err

    def test_overflowing_power_flags_paths(self, tmp_path, capsys):
        """x^201 overflowing at x = 100 is an explosion: every path is
        flagged and the run succeeds."""
        cfg = self._edge_config(tmp_path, "100", "-x^201", "x", 1)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert "(3 flagged)" in capsys.readouterr().out

    def test_requires_single_scenario(self, tmp_path):
        cfg = write(
            tmp_path,
            SIMULATE.replace(
                "scenarios.list = bangbang_t:1@5,0.25@10",
                "scenarios.list = constant:0.25; constant:1.0",
            ),
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_grids_in_one_process_write_fresh_process_bytes(self, tmp_path):
        """Two simulate runs of one process on different grids (another dt
        and horizon) each write the bytes of the same run in a fresh
        process: the formatted t column belongs to its call."""
        src = str(Path(gsde.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        second = SIMULATE.replace("numerics.dt = 0.01", "numerics.dt = 0.02").replace(
            "numerics.horizon = 2", "numerics.horizon = 3"
        )
        for name, text in (("a", SIMULATE), ("b", second)):
            cfg = write(tmp_path, text, name=f"{name}.cfg")
            here, fresh = tmp_path / f"{name}_here", tmp_path / f"{name}_fresh"
            assert main(["simulate", "--config", cfg, "--out", str(here)]) == 0
            proc = subprocess.run(
                [sys.executable, "-m", "gsde.cli", "simulate", "--config", cfg,
                 "--out", str(fresh)],
                cwd=tmp_path, env=env, capture_output=True, timeout=60,
            )
            assert proc.returncode == 0
            names = sorted(p.name for p in here.iterdir())
            assert names == sorted(p.name for p in fresh.iterdir())
            for n in names:
                assert (here / n).read_bytes() == (fresh / n).read_bytes()
        a = (tmp_path / "a_here" / "path_000.csv").read_text().splitlines()
        b = (tmp_path / "b_here" / "path_000.csv").read_text().splitlines()
        assert (len(a), len(b)) == (202, 152)


T34_SWEEP = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -x
sde.g = x
sde.x0 = 1.0
lyapunov.v = x^2
certificate.theorem = T34
certificate.p = 2
certificate.lambda = -1
certificate.rho = {rho}
certificate.kappa = 1
certificate.phi = 1
sweep.parameter = rho
sweep.values = 2, 3, 3.5, 4, 4.5, 5
"""


class TestSweep:
    def test_verdict_flip(self, tmp_path, capsys):
        cfg = write(tmp_path, SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "parameter,value,granted,bound,exponent"
        granted = {}
        for r in rows[1:]:
            _, value, flag, _, _ = r.split(",")
            granted[float(value)] = flag == "true"
        assert granted == {
            0.3: False,
            0.4: False,
            0.5: False,
            0.6: True,
            0.7: True,
            0.8: True,
        }
        text = capsys.readouterr().out
        assert "alpha=0.5: withheld" in text
        assert "alpha=0.6: granted" in text

    @pytest.mark.parametrize(
        "key, values, extra",
        [
            ("grid.x_points", "10, 20", ""),
            ("numerics.seed", "1, 2, 3", "sweep.estimate = true\n"
             "scenarios.list = constant:1\nnumerics.horizon = 1\n"
             "numerics.dt = 0.1\nnumerics.n_paths = 4\n"),
        ],
        ids=["x_points", "seed"],
    )
    def test_integer_key(self, tmp_path, key, values, extra):
        """Each value's own text replaces the placeholder, so an integer
        key can be swept: 10 stays 10, not 10.0."""
        cfg = write(tmp_path, SWEEP.replace("{alpha}", "0.7").replace(
            "sweep.parameter = alpha", "sweep.parameter = n").replace(
            "sweep.values = 0.3, 0.4, 0.5, 0.6, 0.7, 0.8",
            f"sweep.values = {values}\n{key} = {{n}}\n{extra}"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:3] for r in rows] == [
            ["n", v.strip(), "true"] for v in values.split(",")]

    def test_seed_flag_leaves_a_seed_sweep_nothing_to_sweep(self, tmp_path, capsys):
        """--seed replaces numerics.seed before the sweep is built, so a
        sweep whose only placeholder is the seed has none left."""
        cfg = write(tmp_path, SWEEP.replace("{alpha}", "0.7").replace(
            "sweep.values = 0.3, 0.4, 0.5, 0.6, 0.7, 0.8",
            "sweep.values = 1, 2, 3\nnumerics.seed = {alpha}\nsweep.estimate = true\n"
            "scenarios.list = constant:1\nnumerics.horizon = 1\nnumerics.dt = 0.1\n"
            "numerics.n_paths = 4"))
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--seed", "5"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: sweep.parameter: no config value contains {alpha}"]

    def test_each_value_is_one_check_on_its_grid(self, tmp_path, monkeypatch):
        """A sweep calls check_certificate once per value, with the grid as
        its fifth argument (the call perfbench's tracer counts checks and
        grid points from) and the sweep's one SampleHolder."""
        calls = []
        real = cli.check_certificate

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "check_certificate", spy)
        cfg = write(tmp_path, SWEEP)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 6
        held = calls[0][1]["held"]
        assert isinstance(held, SampleHolder)
        assert all(len(args) == 5 and isinstance(args[4], CheckGrid)
                   and kwargs == {"held": held} for args, kwargs in calls)

    def test_certificate_sweep_samples_once(self, tmp_path, evaluations, capsys):
        """A sweep over T34's certificate.rho evaluates its six inputs at
        the first value only; each value adds its time weight phi."""
        cfg = write(tmp_path, T34_SWEEP)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "sweep over rho: 4/6 granted" in capsys.readouterr().out
        assert len(evaluations) == 6 + 6

    def test_missing_sweep_keys(self, tmp_path):
        cfg = write(tmp_path, CERT_GRANT)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bad_values(self, tmp_path):
        cfg = write(
            tmp_path,
            SWEEP.replace(
                "sweep.values = 0.3, 0.4, 0.5, 0.6, 0.7, 0.8",
                "sweep.values = 0.3, oops",
            ),
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


# Byte pin: one small config per subcommand, with the sha256 of every CSV
# it writes.  The digests were recorded before the CSV writers were merged
# into one module; a change here means the output format changed.
PIN_CERTIFY_CAVEAT = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -1.5*x
sde.g = abs(x)
sde.x0 = 1.0
lyapunov.v = x^2
certificate.theorem = T33
certificate.p = 2
grid.x_points = 40
grid.t_points = 20
"""

PIN_T34_WITHHELD = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -x
sde.g = x
sde.x0 = 1.0
lyapunov.v = x^2
certificate.theorem = T34
certificate.p = 2
certificate.lambda = -1
certificate.rho = 5
certificate.kappa = 1
certificate.phi = 1
grid.x_points = 40
grid.t_points = 20
"""

# T35-T38 at the granted values of the benchmark's certify_templates
# workload; T36 also below its flip, so the worst point of a failing
# hypothesis that mixes x and t is pinned.  Their digests were recorded
# while the checker still evaluated every subtree on the full x-t mesh.
PIN_GRID = "grid.x_points = 40\ngrid.t_points = 20\n"

PIN_T35 = """
ambiguity.sigma_lower = 1
ambiguity.sigma_upper = 1
sde.f = -x
sde.g = exp(-t)*x
sde.x0 = 1
lyapunov.v = x^2
certificate.theorem = T35
certificate.p = 2
certificate.lambda = 1
certificate.nu_coeffs = 400,1.0
""" + PIN_GRID

PIN_T36 = """
ambiguity.sigma_lower = 1
ambiguity.sigma_upper = 1
sde.f = -0.5*x
sde.g = exp(-t)*x
sde.x0 = 1
lyapunov.v = exp(t)*x^2
certificate.theorem = T36
certificate.p = 2
certificate.lambda = 1
certificate.eta = 1
certificate.q = 1
certificate.beta_exp = 0
certificate.phi = 20050.0
""" + PIN_GRID

PIN_T36_WITHHELD = PIN_T36.replace("phi = 20050.0", "phi = 15000")

PIN_T37 = """
ambiguity.sigma_lower = 1
ambiguity.sigma_upper = 1
sde.f = -x
sde.g = exp(-t)*x
sde.x0 = 1
lyapunov.v = exp(2*t)*x^2
certificate.theorem = T37
certificate.p = 2
certificate.lambda = 2
certificate.eta = 1
certificate.q = 1.5
certificate.beta_exp = 0
certificate.phi1 = 40100.0*exp(0.5*t)
certificate.phi2 = 0
""" + PIN_GRID

PIN_T38 = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = x
sde.g = 0.5*x
sde.x0 = 1
lyapunov.v = x^2
certificate.theorem = T38
certificate.p = 2
certificate.lambda = 2.0625
certificate.rho = 1
certificate.kappa = 1
certificate.phi = 1
""" + PIN_GRID

# constant:1 flags 3 of 4 paths, so its stderr cell is nan
PIN_EXPONENT_FLAGGED = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -x+0.1*exp(x)
sde.g = 10
sde.x0 = 1.0
scenarios.list = constant:1; constant:0.25; bangbang_t:1@1,0.25@3
numerics.dt = 0.01
numerics.horizon = 5
numerics.n_paths = 4
"""

PIN_SWEEP_ESTIMATE = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -{alpha}*x
sde.g = x
sde.x0 = 1.0
lyapunov.v = x^2
certificate.theorem = T33
certificate.p = 2
scenarios.richness = 1
numerics.dt = 0.01
numerics.horizon = 2
numerics.n_paths = 10
grid.x_points = 40
grid.t_points = 20
sweep.parameter = alpha
sweep.values = 0.3, 0.7
sweep.estimate = true
"""

# path 2 overflows in exp(x) and is flagged
PIN_SIMULATE_MILSTEIN = """
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -x+0.1*exp(x)
sde.g = 1.5+0.2*x
sde.x0 = 1.0
scenarios.list = bangbang_t:1@2,0.25@5
numerics.dt = 0.01
numerics.horizon = 5
numerics.n_paths = 3
numerics.method = milstein
"""

BYTE_PINS = {
    "certify_caveat": ("certify", PIN_CERTIFY_CAVEAT, 0, {
        "certificate.csv":
            "4e60ff2e9f689881cfb5cef2e8c07674a758d705d31e15be79c291b7eb21cb07",
        "verdict.csv":
            "22737e17e839dc4be7f79a94ff7a1abf820b52f888ad42042ee4e8148b6abffa",
    }),
    "certify_t34_withheld": ("certify", PIN_T34_WITHHELD, 1, {
        "certificate.csv":
            "201108161ffc3f9bc8c20f462e19f3f6bed503eac919e459a502d8cb31ff258f",
        "verdict.csv":
            "a34d5b32f396989aca038849bd26e389539bb49a414642de5e340a2254f2fb00",
    }),
    "certify_t35": ("certify", PIN_T35, 0, {
        "certificate.csv":
            "5450c2eab4d4f7d9daf8675ceb8d05acd431d1e9eb275aec74afa352665d85cf",
        "verdict.csv":
            "d53a834af1c3f2110eed9fa0e88995b855eebdec40215577e9a6deaf02a86d58",
    }),
    "certify_t36": ("certify", PIN_T36, 0, {
        "certificate.csv":
            "aedcd4891f557ac36f2af153b5913488b7db93832ea71defc4b826538900cc2e",
        "verdict.csv":
            "2084e032a02fbd680effa6e3df962e8ea848d0d43dd61b69c8cd200678a636c1",
    }),
    "certify_t36_withheld": ("certify", PIN_T36_WITHHELD, 1, {
        "certificate.csv":
            "dfb8a0adfdabf962cddf6194e6b47cec544219de9619c5d3aad5a4a944d14d81",
        "verdict.csv":
            "3661a0ce2e7d21feb2916fbe6ed1420dd1f121c7460bc94e50a7200a2a97795a",
    }),
    "certify_t37": ("certify", PIN_T37, 0, {
        "certificate.csv":
            "de5a6f19e87cd4c68c4528737aa735d1510291653df748def6348a3a09d0ff68",
        "verdict.csv":
            "df317f060c1eb486c848123625a2db57504aff3567a6695478137fd023e91f4e",
    }),
    "certify_t38": ("certify", PIN_T38, 0, {
        "certificate.csv":
            "b1e9e3ac9f6e5aaf150165333bff9ab80e0ade7e176df5bf26693dc4998c501f",
        "verdict.csv":
            "a64633bbb056475395911d3b6bc0ac9218ba28b91e43f415a4c813a7d0290af8",
    }),
    "exponent_flagged": ("exponent", PIN_EXPONENT_FLAGGED, 0, {
        "exponent.csv":
            "f3d6f897b7d85e6cf2ca19d3a172695966917ec3f25ea5ef4e58cf04859b3c00",
    }),
    "sweep_estimate": ("sweep", PIN_SWEEP_ESTIMATE, 0, {
        "sweep.csv":
            "40fa56d62b66a8f2665e6d006f4f2c1ddfd853dc27847e27170c27032412550a",
    }),
    "simulate_milstein": ("simulate", PIN_SIMULATE_MILSTEIN, 0, {
        "path_000.csv":
            "7c37ccd04df5c1ca6f9d702203874bbed592119169120999f65525a86f2892ce",
        "path_001.csv":
            "bfbce03d84bb898040ad1f6ff685984e3cfd2d250456c9ea6c8da0311b83b152",
        "path_002.csv":
            "bbbaab6f748d54f09c24c90c2dd877d05b8a43b519546deea912a376eec66fa8",
    }),
}


# V's curvature picks the band edge of feedback_vxx
FEEDBACK = SIMULATE.replace("scenarios.list = bangbang_t:1@5,0.25@10", (
    "lyapunov.v = (1+exp(-t))*x^2+x^4\n"
    "scenarios.list = constant:0.25; feedback_vxx"
))


@pytest.mark.parametrize(
    "command, text, digests",
    [
        ("exponent", FEEDBACK, {
            "exponent.csv":
                "a775e1f6f90942f03643f881fd0c97e5c1e934e740a08649d8205609a0b3109e",
        }),
        ("simulate", FEEDBACK.replace("constant:0.25; ", "")
         + "numerics.method = milstein\n", {
            "path_000.csv":
                "dc319b4ef77aadc3275d4ea0383782f79e8a0dab3280f1a757567ab6f0cc259c",
            "path_001.csv":
                "fe9eca29d08f808165c39a0be6b34efa33e4be31b0be9ca40c10a336913311de",
            "path_002.csv":
                "e5ded59d0efda41d00b3c7d39a5f3199af53c491676299c310d07206ed58f4bb",
        }),
    ],
    ids=["exponent", "simulate"],
)
def test_feedback_reads_v_without_certificate_partials(
    tmp_path, monkeypatch, command, text, digests
):
    """exponent and simulate pass V to feedback_vxx as parsed; they never
    build the certificate's V_t, V_x and V_xx, and the bytes stay pinned."""
    def refuse(cls, V):
        raise AssertionError("LyapunovFn.from_expr called")

    monkeypatch.setattr(LyapunovFn, "from_expr", classmethod(refuse))
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == digests


@pytest.mark.parametrize(
    "text, line",
    [
        (CERT_GRANT.replace("certificate.p = 2", "certificate.p = 400"),
         "error: envelope: inf <= 100 is not finite at x=-10, t=0"),
        (PIN_T36.replace("certificate.lambda = 1\n", "certificate.lambda = 60\n"),
         "error: envelope: inf <= 3.06073e+07 is not finite at x=-10, t=12.6316"),
    ],
    ids=["t33_p400", "t36_lambda60"],
)
def test_overflowing_envelope_is_3(tmp_path, capsys, recwarn, text, line):
    """An envelope weight |x|^p (times e^(lambda t) for T36 and T37) that
    overflows on the grid is refused at the point where it overflows,
    instead of being checked into a nan verdict."""
    cfg = write(tmp_path, text)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.splitlines() == [line]
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


def test_overflow_in_an_uncompared_operator_is_harmless(tmp_path, capsys, recwarn):
    """H = g^2 V_x^2 overflows for V = 1e300 x^2, but T33 never compares
    H, so the certificate is granted as for V = x^2, without a warning."""
    cfg = write(tmp_path, CERT_GRANT + "lyapunov.v = 1e300*x^2\n")
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "T33: granted (limsup rate <= -0.5)\n"
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


@pytest.mark.parametrize(
    "text, t_points, message",
    [
        (PIN_T34_WITHHELD, 2, "time_average: 1 grid time(s) in the fit window, "
         "fewer than its 2 unknowns"),
        (PIN_T38, 2, "time_average: 1 grid time(s) in the fit window, "
         "fewer than its 2 unknowns"),
        (PIN_T36, 2, "weight_growth: 1 grid time(s) in the fit window, "
         "fewer than its 3 unknowns"),
        (PIN_T36, 3, "weight_growth: 2 grid time(s) in the fit window, "
         "fewer than its 3 unknowns"),
        (PIN_T37, 2, "weight1_growth: 1 grid time(s) in the fit window, "
         "fewer than its 3 unknowns"),
        (PIN_T37, 3, "weight1_growth: 2 grid time(s) in the fit window, "
         "fewer than its 3 unknowns"),
    ],
    ids=["t34_2", "t38_2", "t36_2", "t36_3", "t37_2", "t37_3"],
)
def test_underdetermined_fit_is_3(tmp_path, capsys, recwarn, text, t_points, message):
    """A time-average hypothesis whose extrapolation window holds fewer grid
    times than its fit has unknowns is refused, not granted."""
    cfg = write(tmp_path, text + f"grid.t_points = {t_points}\n")
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: " + message]
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


class TestBytePin:
    @pytest.mark.parametrize("name", sorted(BYTE_PINS))
    def test_csv_digests(self, tmp_path, name):
        command, text, code, digests = BYTE_PINS[name]
        cfg = write(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        got = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()
        }
        assert got == digests


# The six sweeps of the benchmark's certify_templates workload, on the pin
# grid, and one over a growing envelope's lambda: name -> (config with its
# placeholder, parameter, values).
REUSE_SWEEPS = {
    "T33": ("""
ambiguity.sigma_lower = 0.5
ambiguity.sigma_upper = 1.0
sde.f = -{a}*x-x^3
sde.g = x
sde.x0 = 1
lyapunov.v = (1+exp(-t))*x^2+x^4
certificate.theorem = T33
certificate.p = 2
""" + PIN_GRID, "a", "0.3, 0.4, 0.5, 0.55, 0.6, 0.7, 0.8, 1.0"),
    "T34": (PIN_T34_WITHHELD.replace("rho = 5", "rho = {rho}"), "rho",
            "2.0, 3.0, 3.5, 4.0, 4.5, 5.0"),
    "T35": (PIN_T35.replace("400,1.0", "400,{c}"), "c", "0.5, 0.75, 0.9, 1.0, 1.25, 1.5"),
    "T36": (PIN_T36.replace("phi = 20050.0", "phi = {c}"), "c",
            "10000.0, 15000.0, 20000.0, 20050.0, 21000.0, 30000.0"),
    "T37": (PIN_T37.replace("40100.0*exp", "{c}*exp"), "c",
            "20000.0, 30000.0, 40000.0, 40100.0, 41000.0, 50000.0"),
    "T38": (PIN_T38.replace("lambda = 2.0625", "lambda = {lam}"), "lam",
            "1.5, 1.75, 2.0, 2.0625, 2.1, 2.5"),
    # T36's envelope e^(lambda t) x^2 <= e^t x^2 holds up to lambda = 1
    "T36_lambda": (PIN_T36.replace("lambda = 1", "lambda = {lam}"), "lam", "0.5, 1, 1.5"),
}

# CERT_GRANT on a small grid, with each section's key swept in turn
REUSE_BASE = CERT_GRANT + "grid.x_points = 20\ngrid.t_points = 10\n"
# swept key -> (its line with the placeholder, values, the builders that run
# at every value; the others run at the first value only)
SECTION_SWEEPS = {
    "ambiguity": ("ambiguity.sigma_lower = {s}", "0.5, 0.7, 0.9",
                  {"build_bounds", "build_certificate"}),
    "sde.t0": ("sde.t0 = {s}", "0, 1, 2.5", {"build_sde", "build_grid"}),
    "lyapunov": ("lyapunov.v = {s}*x^2", "1, 2, 3", {"build_lyapunov"}),
    "certificate": ("certificate.p = {s}", "1, 2, 3", {"build_certificate"}),
    "grid": ("grid.x_points = {s}", "10, 20, 30", {"build_grid"}),
}
CHECK_BUILDERS = ("build_bounds", "build_sde", "build_lyapunov", "build_certificate",
                  "build_grid")


def _sweep_config(base, param, values):
    return base + f"sweep.parameter = {param}\nsweep.values = {values}\n"


def _with_line(base, line):
    """base with line in place of the line of its key, or added."""
    key = line.split(" = ")[0]
    lines = [ln for ln in base.splitlines() if not ln.startswith(key + " ")]
    return "\n".join(lines + [line]) + "\n"


def _counted(runs, name, build):
    """build, appending name to runs at each call."""
    def counted(*args, **kwargs):
        runs.append(name)
        return build(*args, **kwargs)
    return counted


class TestSweepReuse:
    """What a sweep reuses from its last point, built products and operators
    alike, is invisible: every point reports what a fresh build and a
    holder-less check of its config report."""

    @staticmethod
    def _sweep(tmp_path, monkeypatch, text):
        """Run text as a sweep; (its config, each point's report, the
        sweep's holder)."""
        reports, holders = [], []
        real = cli.check_certificate

        def spy(*args, **kwargs):
            holders.append(kwargs["held"])
            reports.append(real(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "check_certificate", spy)
        cfg = write(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        return load_config(cfg), reports, holders[0]

    @staticmethod
    def _fresh(cfg):
        return [repr(check_certificate(*build_check(sub)))
                for _, sub in build_sweep(cfg).points(cfg)]

    @pytest.mark.parametrize("name", sorted(REUSE_SWEEPS))
    def test_template_sweep_reports_what_fresh_checks_report(
            self, tmp_path, monkeypatch, capsys, name):
        text, param, values = REUSE_SWEEPS[name]
        cfg, reports, _ = self._sweep(tmp_path, monkeypatch,
                                      _sweep_config(text, param, values))
        assert [repr(r) for r in reports] == self._fresh(cfg)
        assert {r.granted for r in reports} == {True, False}

    @pytest.mark.parametrize("section", sorted(SECTION_SWEEPS))
    def test_swept_section_is_rebuilt_and_the_rest_reused(
            self, tmp_path, monkeypatch, capsys, section):
        line, values, rebuilt = SECTION_SWEEPS[section]
        runs = []
        for name in CHECK_BUILDERS:
            monkeypatch.setattr(config, name, _counted(runs, name, getattr(config, name)))
        text = _sweep_config(_with_line(REUSE_BASE, line), "s", values)
        cfg, reports, _ = self._sweep(tmp_path, monkeypatch, text)
        n = len(reports)
        assert {name: runs.count(name) for name in CHECK_BUILDERS} == {
            name: n if name in rebuilt else 1 for name in CHECK_BUILDERS}
        assert [repr(r) for r in reports] == self._fresh(cfg)

    def test_first_refusal_is_unchanged(self, tmp_path, capsys):
        """A bad unswept lyapunov.v is refused after a bad swept sde.f at the
        first point, as sde is built before lyapunov."""
        text = _sweep_config(REUSE_BASE.replace("sde.f = -1.5*x", "sde.f = -x*1e30{a}")
                             .replace("lyapunov.v = x^2", "lyapunov.v = y^2"), "a", "9, 0")
        cfg = write(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: sde.f: number 1e309 is not finite (offset 3)"]

    def test_holder_keeps_one_point(self, tmp_path, monkeypatch, capsys):
        """After a sweep over grid.x_points, the holder refers to the last
        point's grid and sample only: the others are freed."""
        grids, samples, holders = [], [], []
        real = cli.check_certificate

        def spy(*args, **kwargs):
            report = real(*args, **kwargs)
            grids.append(weakref.ref(args[4]))
            samples.append(weakref.ref(kwargs["held"].slots["sample"][1]))
            holders.append(kwargs["held"])
            return report

        monkeypatch.setattr(cli, "check_certificate", spy)
        text = _sweep_config(_with_line(REUSE_BASE, "grid.x_points = {s}"), "s",
                             "5, 10, 15, 20, 25")
        cfg = write(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        gc.collect()
        assert len(grids) == len(samples) == 5
        assert [r() is not None for r in grids] == [False] * 4 + [True]
        assert [r() is not None for r in samples] == [False] * 4 + [True]
        sample = holders[-1].slots["sample"][1]
        assert sample is samples[-1]() and sample.x.shape == (50, 10)
        assert [product for _, product in holders[-1].slots.values()
                if isinstance(product, CheckGrid)] == [grids[-1]()]
        assert isinstance(sample, OperatorSample)


# ---------------------------------------------------------------------------
# the exit-code contract on random configs


def _number(lo, hi):
    return st.floats(lo, hi).map(repr)


def _count(hi):
    return st.integers(1, hi).map(str)


_EXPRS = st.one_of(st.sampled_from(["-x", "x", "x^2", "1"]),
                   any_exprs().map(to_source))
_ENERGY = st.one_of(st.sampled_from(["x^2", "x^2*(2 + sin(t))", "abs(x)^1.5"]),
                    any_exprs().map(to_source))
_TIME_WEIGHT = st.sampled_from(["1", "1 + t", "exp(-t)", "2 - sin(t)"])

# a template field's values; the time weights take t only
_FIELD = {
    "p": _number(0.5, 3.0),
    "lam": _number(-2.0, 2.0),
    "rho": _number(0.0, 4.0),
    "kappa": _number(0.1, 3.0),
    "eta": _number(0.1, 3.0),
    "q": _number(0.1, 3.0),
    "beta_exp": _number(0.0, 0.9),
    "phi": _TIME_WEIGHT,
    "phi1": _TIME_WEIGHT,
    "phi2": _TIME_WEIGHT,
    "nu_coeffs": st.lists(_number(-1.0, 2.0), min_size=2, max_size=3).map(", ".join),
}

_SCENARIO = st.one_of(
    _number(-1.0, 2.0).map("constant:{}".format),
    st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 12.0)), min_size=1,
             max_size=3).map(lambda pairs: "bangbang_t:" + ",".join(
                 f"{v!r}@{t!r}" for v, t in sorted(pairs, key=lambda p: p[1]))),
    st.tuples(_number(-2.0, 2.0), _number(0.0, 2.0), _number(0.0, 2.0)).map(
        lambda p: "bangbang_x:" + ",".join(p)),
    st.just("feedback_vxx"),
    _number(1e-3, 1.0).map("piecewise_random:dwell={}".format),
)


@st.composite
def any_configs(draw):
    """(command, config text, --seed flag or None): a config for one of the
    four subcommands, with up to two of its keys set to FAULT_VALUES.  A
    run has at most 4 paths over a horizon of at most 1 in steps of at
    least 1e-3, and a check grid at most 50 x 20; no fault value sizes a
    large array."""
    command = draw(st.sampled_from(["certify", "exponent", "simulate", "sweep"]))
    theorem = draw(st.sampled_from(sorted(_TEMPLATES)))
    keys = {
        "ambiguity.sigma_lower": draw(_number(0.1, 1.0)),
        "ambiguity.sigma_upper": draw(_number(1.0, 2.0)),
        "sde.f": draw(_EXPRS),
        "sde.g": draw(_EXPRS),
        "sde.x0": draw(_number(-2.0, 2.0)),
        "sde.t0": draw(_number(0.0, 10.0)),
        "lyapunov.v": draw(_ENERGY),
        "certificate.theorem": theorem,
        **{f"certificate.{CERT_PARAMS.get(name, (name,))[0]}": draw(_FIELD[name])
           for name in ("p", *_TEMPLATES[theorem].fields)},
        "numerics.horizon": draw(_number(1e-3, 1.0)),
        "numerics.n_paths": draw(_count(4)),
        "numerics.seed": draw(st.integers(0, 3).map(str)),
        "numerics.method": draw(st.sampled_from(["euler", "milstein"])),
        "grid.x_points": draw(_count(50)),
        "grid.t_points": draw(st.integers(2, 20).map(str)),
        "grid.x_min": draw(_number(1e-3, 1.0)),
        "grid.x_max": draw(_number(1.0, 10.0)),
        "grid.t_span": draw(_number(0.1, 10.0)),
    }
    keys["numerics.dt"] = draw(_number(1e-3, float(keys["numerics.horizon"])))
    if command == "simulate" or draw(st.booleans()):
        keys["scenarios.list"] = "; ".join(draw(st.lists(
            _SCENARIO, min_size=1, max_size=1 if command == "simulate" else 3)))
    else:
        keys["scenarios.richness"] = draw(_count(3))
    if command == "sweep":
        swept = draw(st.sampled_from(["sde.f", "certificate.p"]))
        keys[swept] = "{a}" if swept == "certificate.p" else f"{{a}}*({keys[swept]})"
        keys["sweep.parameter"] = "a"
        keys["sweep.values"] = draw(st.lists(_number(0.1, 3.0), min_size=1,
                                             max_size=3).map(", ".join))
        keys["sweep.estimate"] = draw(st.sampled_from(["true", "false"]))
    keys.update(draw(st.lists(st.tuples(st.sampled_from(sorted(KNOWN_KEYS)),
                                        st.sampled_from(FAULT_VALUES)),
                              max_size=2)))
    seed = draw(st.sampled_from([None, None, None, 0, 1, 2, -1, 2**64]))
    return command, "".join(f"{k} = {v}\n" for k, v in keys.items()), seed


@given(case=any_configs())
@settings(max_examples=300, deadline=None)
def test_random_configs_keep_the_exit_code_contract(case):
    """On every drawn config, main returns 0, 1, 2 or 3 and raises nothing
    (a warning, which the suite makes an error, counts as raising), and a
    second run of the same config in the same process returns the same
    code and writes the same bytes."""
    command, text, seed = case
    flags = [] if seed is None else ["--seed", str(seed)]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp), text)
        runs = []
        for name in ("first", "second"):
            out = Path(tmp) / name
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, "--config", cfg, "--out", str(out)] + flags)
            assert code in (0, 1, 2, 3)
            runs.append((code, {p.name: p.read_bytes() for p in out.glob("*")}))
    assert runs[0] == runs[1]
