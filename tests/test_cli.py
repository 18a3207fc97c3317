"""End-to-end CLI checks driven through main()."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsde
from gsde.cli import main

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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_config_seed_out_of_range(self, tmp_path, seed):
        cfg = write(tmp_path, EXPONENT + f"numerics.seed = {seed}\n")
        assert main(["exponent", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_flag_out_of_range(self, tmp_path, seed):
        cfg = write(tmp_path, EXPONENT)
        argv = ["exponent", "--config", cfg, "--seed", str(seed)]
        assert main(argv + ["--out", str(tmp_path)]) == 2

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


class TestExponent:
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

    def test_requires_single_scenario(self, tmp_path):
        cfg = write(
            tmp_path,
            SIMULATE.replace(
                "scenarios.list = bangbang_t:1@5,0.25@10",
                "scenarios.list = constant:0.25; constant:1.0",
            ),
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


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
