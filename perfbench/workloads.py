"""The benchmark's workloads: the CLI calls of one repetition, the work they
do, and the checks their outputs must pass.

Every workload drives `gsde.cli.main` with config files written here.
Outputs are checked two ways: invariants that hold at any seed, and, at
the pinned seed, the sha256 of every CSV against digests.json.  An
operation is a scenario row, a path file, a sweep point or a certify call;
a check that fails marks the operations it covers as failed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Repetitions at this seed are compared byte for byte with digests.json;
# it is numerics.seed's default.
PINNED_SEED = 0

SIZES = ("full", "tiny")


@dataclass
class Call:
    """One `gsde` invocation of a repetition and the operations it carries."""

    subcommand: str
    name: str
    config: str
    ops: list[str]
    # output file -> the operations whose result it holds
    files: dict[str, list[str]]
    check: object  # fn(out_dir: Path) -> {op: reason}
    seeded: bool = False

    def argv(self, config_path: Path, out_dir: Path, seed: int) -> list[str]:
        argv = [self.subcommand, "--config", str(config_path), "--out", str(out_dir)]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv


@dataclass
class Workload:
    name: str
    why: str
    calls: object  # fn(size) -> list[Call]
    work: object  # fn(size) -> path-steps or grid points per repetition
    expected_counts: object  # fn(size) -> {per-layer count: exact value}


def _fail_all(ops, reason):
    return {op: reason for op in ops}


def _read_rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _steps(horizon: float, dt: float) -> int:
    return max(1, round(horizon / dt))


# ---------------------------------------------------------------------------
# exponent_family

BAND = "ambiguity.sigma_lower = 0.5\nambiguity.sigma_upper = 1.0\n"
V_LO, V_HI = 0.25, 1.0

EXPONENT_SIZES = {
    "full": {"paths": 500, "dt": 1e-3, "horizon": 5.0},
    "tiny": {"paths": 40, "dt": 1e-2, "horizon": 10.0},
}
EXPONENT_LABELS = (
    "constant:0.25",
    "constant:1",
    "constant:0.4375",
    "constant:0.625",
    "constant:0.8125",
    "bangbang_t:1@5,0.25@10",
    "bangbang_t:1@5,0.25@10,1@15",
    "feedback_vxx",
)
# the T33 bound -0.5 for this SDE, plus the 0.1 allowance of criterion 3
EXPONENT_CEILING = -0.4


def _exponent_check(size):
    def check(out_dir: Path):
        ops = list(EXPONENT_LABELS)
        path = out_dir / "exponent.csv"
        if not path.exists():
            return _fail_all(ops, "exponent.csv missing")
        rows = _read_rows(path)
        if len(rows) != len(ops) + 3 or rows[0][0] != "scenario":
            return _fail_all(ops, "exponent.csv has the wrong shape")
        failures = {}
        body = {r[0]: r for r in rows[1:-2]}
        means = []
        for label in ops:
            row = body.get(label)
            if row is None:
                failures[label] = "row missing"
                continue
            mean = float(row[1])
            means.append(mean)
            if not (math.isfinite(mean) and mean <= EXPONENT_CEILING):
                failures[label] = f"mean exponent {mean} above {EXPONENT_CEILING}"
            elif int(row[5]) != size["paths"] or int(row[6]) != 0:
                failures[label] = f"n_paths/n_flagged {row[5]}/{row[6]}"
            elif float(row[7]) != size["horizon"]:
                failures[label] = f"horizon {row[7]}"
        sup = rows[-2]
        if sup[0] != "family_sup_mean" or not means or float(sup[1]) != max(means):
            return _fail_all(ops, "family_sup_mean is not the max of the means")
        return failures

    return check


def _exponent_calls(size_name):
    size = EXPONENT_SIZES[size_name]
    config = (
        BAND
        + "sde.f = -x\nsde.g = x\nsde.x0 = 1\n"
        + "lyapunov.v = (1+exp(-t))*x^2+x^4\n"
        + "scenarios.richness = 3\n"
        + f"numerics.dt = {size['dt']!r}\n"
        + f"numerics.horizon = {size['horizon']!r}\n"
        + f"numerics.n_paths = {size['paths']}\n"
    )
    ops = list(EXPONENT_LABELS)
    return [Call("exponent", "exponent", config, ops, {"exponent.csv": ops},
                 _exponent_check(size), seeded=True)]


def _exponent_counts(size_name):
    s = EXPONENT_SIZES[size_name]
    n = _steps(s["horizon"], s["dt"])
    k = len(EXPONENT_LABELS)
    return {
        "scenario.philox_draws": k * s["paths"] * n,
        "scenario.variance_calls": k * n,
        "estimator.steps": k * n,
        "estimator.lanes_per_step": s["paths"],
        "estimator.useful_frac": 1.0,
        "integrator.steps": 0,
        "lyapunov.checks": 0,
    }


def _exponent_work(size_name):
    s = EXPONENT_SIZES[size_name]
    return len(EXPONENT_LABELS) * s["paths"] * _steps(s["horizon"], s["dt"])


# ---------------------------------------------------------------------------
# simulate_paths

SIMULATE_SIZES = {
    "full": {"paths": 4, "dt": 1e-3, "horizon": 20.0},
    "tiny": {"paths": 2, "dt": 1e-3, "horizon": 2.0},
}


def _simulate_check(size):
    n = _steps(size["horizon"], size["dt"])
    grid = np.linspace(0.0, size["horizon"], n + 1)

    def check_file(path: Path):
        if not path.exists():
            return "missing"
        lines = path.read_text().splitlines()
        if not lines or lines[0] != "t,W,v,B,qv,X":
            return "wrong header"
        if len(lines) != n + 2:
            return f"{len(lines) - 1} rows, expected {n + 1}"
        if any(line.count(",") != 5 for line in lines[1:]):
            return "a row without 6 fields"
        try:
            vals = np.array(",".join(lines[1:]).split(","), dtype=float).reshape(-1, 6)
        except ValueError:
            return "a field that is not a number"
        if np.any(vals[:, 0] != grid):
            return f"t off the grid at row {int(np.argmax(vals[:, 0] != grid))}"
        v = vals[:, 2]
        if np.any((v < V_LO) | (v > V_HI)):
            return f"v outside the band at row {int(np.argmax((v < V_LO) | (v > V_HI)))}"
        if not np.all(np.isfinite(vals)):
            return "non-finite value"
        return None

    def check(out_dir: Path):
        failures = {}
        for p in range(size["paths"]):
            reason = check_file(out_dir / f"path_{p:03d}.csv")
            if reason:
                failures[f"path_{p:03d}"] = reason
        return failures

    return check


def _simulate_calls(size_name):
    size = SIMULATE_SIZES[size_name]
    config = (
        BAND
        + "sde.f = -x+0.5*sin(t)\nsde.g = x\nsde.x0 = 1\n"
        + "scenarios.list = piecewise_random:dwell=0.5\n"
        + "numerics.method = milstein\n"
        + f"numerics.dt = {size['dt']!r}\n"
        + f"numerics.horizon = {size['horizon']!r}\n"
        + f"numerics.n_paths = {size['paths']}\n"
    )
    ops = [f"path_{p:03d}" for p in range(size["paths"])]
    files = {f"{op}.csv": [op] for op in ops}
    return [Call("simulate", "simulate", config, ops, files,
                 _simulate_check(size), seeded=True)]


def _simulate_counts(size_name):
    s = SIMULATE_SIZES[size_name]
    steps = s["paths"] * _steps(s["horizon"], s["dt"])
    return {
        "integrator.steps": steps,
        "scenario.philox_draws": steps,
        "scenario.variance_calls": steps,
        "estimator.steps": 0,
        "lyapunov.checks": 0,
    }


def _simulate_work(size_name):
    s = SIMULATE_SIZES[size_name]
    return s["paths"] * _steps(s["horizon"], s["dt"])


# ---------------------------------------------------------------------------
# certify_templates
#
# One sweep per template, each crossing its verdict flip, plus one certify
# call at the flip value.  Flips are derived by hand:
#   T33  LV/V <= -lambda needs a > 2 - sqrt(2) (a root of a^2 - 4a + 2)
#   T34  HV = 4 V^2 >= rho V^2 needs rho <= 4
#   T35  the coefficient tail test needs nu_1 >= 1
#   T36  LV + HV/(1+t) <= 2c peaks at x = 10, t = 0: c >= (100 + 40000)/2
#   T37  x^2 e^{-t/2} + 4 x^4 <= c peaks at x = 10, t = 0: c >= 40100
#   T38  the best-case drift is 2.0625 V, so lambda <= 2.0625

@dataclass(frozen=True)
class Template:
    theorem: str
    config: str  # with {param} standing for the swept value
    param: str
    values: tuple[float, ...]
    flip: float
    granted_above: bool  # granted for values >= flip, else for <= flip
    bound: object  # fn(value) -> expected bound, or None to check the sign
    certify_at: float  # a granted value next to the flip


TEMPLATES = (
    Template(
        "T33",
        BAND + "sde.f = -{a}*x-x^3\nsde.g = x\nsde.x0 = 1\n"
        "lyapunov.v = (1+exp(-t))*x^2+x^4\n"
        "certificate.theorem = T33\ncertificate.p = 2\n",
        "a", (0.3, 0.4, 0.5, 0.55, 0.6, 0.7, 0.8, 1.0),
        2.0 - math.sqrt(2.0), True, None, 0.6,
    ),
    Template(
        "T34",
        BAND + "sde.f = -x\nsde.g = x\nsde.x0 = 1\nlyapunov.v = x^2\n"
        "certificate.theorem = T34\ncertificate.p = 2\ncertificate.lambda = -1\n"
        "certificate.rho = {rho}\ncertificate.kappa = 1\ncertificate.phi = 1\n",
        "rho", (2.0, 3.0, 3.5, 4.0, 4.5, 5.0),
        4.0, False, lambda rho: -0.5 * (V_LO * rho / 2 + 1.0), 4.0,
    ),
    Template(
        "T35",
        "ambiguity.sigma_lower = 1\nambiguity.sigma_upper = 1\n"
        "sde.f = -x\nsde.g = exp(-t)*x\nsde.x0 = 1\nlyapunov.v = x^2\n"
        "certificate.theorem = T35\ncertificate.p = 2\ncertificate.lambda = 1\n"
        "certificate.nu_coeffs = 400,{c}\n",
        "c", (0.5, 0.75, 0.9, 1.0, 1.25, 1.5),
        1.0, True, lambda c: -0.5, 1.0,
    ),
    Template(
        "T36",
        "ambiguity.sigma_lower = 1\nambiguity.sigma_upper = 1\n"
        "sde.f = -0.5*x\nsde.g = exp(-t)*x\nsde.x0 = 1\nlyapunov.v = exp(t)*x^2\n"
        "certificate.theorem = T36\ncertificate.p = 2\ncertificate.lambda = 1\n"
        "certificate.eta = 1\ncertificate.q = 1\ncertificate.beta_exp = 0\n"
        "certificate.phi = {c}\n",
        "c", (10000.0, 15000.0, 20000.0, 20050.0, 21000.0, 30000.0),
        20050.0, True, lambda c: -0.5, 20050.0,
    ),
    Template(
        "T37",
        "ambiguity.sigma_lower = 1\nambiguity.sigma_upper = 1\n"
        "sde.f = -x\nsde.g = exp(-t)*x\nsde.x0 = 1\nlyapunov.v = exp(2*t)*x^2\n"
        "certificate.theorem = T37\ncertificate.p = 2\ncertificate.lambda = 2\n"
        "certificate.eta = 1\ncertificate.q = 1.5\ncertificate.beta_exp = 0\n"
        "certificate.phi1 = {c}*exp(0.5*t)\ncertificate.phi2 = 0\n",
        "c", (20000.0, 30000.0, 40000.0, 40100.0, 41000.0, 50000.0),
        40100.0, True, lambda c: -0.25, 40100.0,
    ),
    Template(
        "T38",
        BAND + "sde.f = x\nsde.g = 0.5*x\nsde.x0 = 1\nlyapunov.v = x^2\n"
        "certificate.theorem = T38\ncertificate.p = 2\ncertificate.lambda = {lam}\n"
        "certificate.rho = 1\ncertificate.kappa = 1\ncertificate.phi = 1\n",
        "lam", (1.5, 1.75, 2.0, 2.0625, 2.1, 2.5),
        2.0625, False, lambda lam: 0.5 * (lam - V_HI / 2), 2.0625,
    ),
)

CERTIFY_SIZES = {
    "full": {"x_points": 200, "t_points": 200},
    "tiny": {"x_points": 25, "t_points": 40},
}


def _granted(tpl: Template, value: float) -> bool:
    return value >= tpl.flip if tpl.granted_above else value <= tpl.flip


def _bound_ok(tpl: Template, value: float, text: str) -> bool:
    bound = float(text)
    if tpl.bound is None:
        return math.isfinite(bound) and bound < 0
    return math.isclose(bound, tpl.bound(value), rel_tol=1e-12)


def _sweep_check(tpl: Template, ops):
    def check(out_dir: Path):
        path = out_dir / "sweep.csv"
        if not path.exists():
            return _fail_all(ops, "sweep.csv missing")
        rows = _read_rows(path)[1:]
        if len(rows) != len(ops):
            return _fail_all(ops, "sweep.csv has the wrong number of rows")
        failures = {}
        for op, value, row in zip(ops, tpl.values, rows):
            granted = _granted(tpl, value)
            if row[0] != tpl.param or float(row[1]) != value:
                failures[op] = f"row {row[:2]} is not {tpl.param}={value!r}"
            elif row[2] != ("true" if granted else "false"):
                failures[op] = f"verdict {row[2]}, flip at {tpl.flip!r}"
            elif granted and not _bound_ok(tpl, value, row[3]):
                failures[op] = f"bound {row[3]}"
            elif not granted and row[3] != "":
                failures[op] = "withheld row carries a bound"
        return failures

    return check


def _certify_check(tpl: Template, op):
    def check(out_dir: Path):
        try:
            verdict = _read_rows(out_dir / "verdict.csv")[1]
            hyps = _read_rows(out_dir / "certificate.csv")[1:]
        except (OSError, IndexError):
            return {op: "verdict.csv or certificate.csv missing"}
        if verdict[0] != tpl.theorem or verdict[1] != "true":
            return {op: f"verdict {verdict[:2]}"}
        if not _bound_ok(tpl, tpl.certify_at, verdict[2]):
            return {op: f"bound {verdict[2]}"}
        if not hyps or any(h[1] != "true" for h in hyps):
            return {op: "a hypothesis failed"}
        return {}

    return check


def _certify_calls(size_name):
    grid = CERTIFY_SIZES[size_name]
    grid_keys = (f"grid.x_points = {grid['x_points']}\n"
                 f"grid.t_points = {grid['t_points']}\n")
    calls = []
    for tpl in TEMPLATES:
        ops = [f"{tpl.theorem} {tpl.param}={v!r}" for v in tpl.values]
        sweep_cfg = (
            tpl.config + grid_keys
            + f"sweep.parameter = {tpl.param}\n"
            + "sweep.values = " + ",".join(repr(v) for v in tpl.values) + "\n"
            + "sweep.estimate = false\n"
        )
        calls.append(Call("sweep", f"{tpl.theorem}_sweep", sweep_cfg, ops,
                          {"sweep.csv": ops}, _sweep_check(tpl, ops)))
        op = f"{tpl.theorem} certify"
        certify_cfg = (
            tpl.config.replace("{" + tpl.param + "}", repr(tpl.certify_at))
            + grid_keys
        )
        calls.append(Call("certify", f"{tpl.theorem}_certify", certify_cfg, [op],
                          {"certificate.csv": [op], "verdict.csv": [op]},
                          _certify_check(tpl, op)))
    return calls


def _certify_checks() -> int:
    return sum(len(t.values) + 1 for t in TEMPLATES)


def _certify_counts(size_name):
    g = CERTIFY_SIZES[size_name]
    checks = _certify_checks()
    return {
        "lyapunov.checks": checks,
        "lyapunov.grid_points": checks * 2 * g["x_points"] * g["t_points"],
        "scenario.philox_draws": 0,
        "integrator.steps": 0,
        "estimator.steps": 0,
    }


def _certify_work(size_name):
    g = CERTIFY_SIZES[size_name]
    return _certify_checks() * 2 * g["x_points"] * g["t_points"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exponent_family",
            "8 scenarios x 500 lanes on common random numbers, with a "
            "state-feedback policy: the vectorized estimator",
            _exponent_calls, _exponent_work, _exponent_counts,
        ),
        Workload(
            "simulate_paths",
            "one path at a time through the scalar integrator and the path "
            "CSV writer; the only milstein and level-stream user",
            _simulate_calls, _simulate_work, _simulate_counts,
        ),
        Workload(
            "certify_templates",
            "deterministic sweeps across the verdict flip of T33-T38: config "
            "rebuilds, differentiate, checked evaluate, gcalc",
            _certify_calls, _certify_work, _certify_counts,
        ),
    )
}
