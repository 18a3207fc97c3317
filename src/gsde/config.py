"""Flat key = value config files and builders for the library objects.

The file format is one `key = value` pair per line, `#` comment lines,
optional single or double quotes around values.  Keys are namespaced with
dots; unknown keys are rejected so typos fail loudly instead of silently
falling back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import Expr, ParseError, free_variables, parse
from .gcalc import AmbiguityBounds
from .integrator import METHODS, SdeSpec
from .lyapunov import (
    CertificateError,
    CertificateSpec,
    CheckGrid,
    LyapunovFn,
    validate_certificate,
)
from .scenario import ScenarioError, enumerate_family, parse_scenario

__all__ = [
    "ConfigError",
    "KNOWN_KEYS",
    "SEED_LIMIT",
    "Numerics",
    "parse_config_text",
    "load_config",
    "build_bounds",
    "build_sde",
    "build_lyapunov",
    "build_certificate",
    "build_scenarios",
    "build_grid",
    "build_numerics",
]


class ConfigError(Exception):
    pass


KNOWN_KEYS = frozenset(
    [
        "ambiguity.sigma_lower",
        "ambiguity.sigma_upper",
        "sde.f",
        "sde.g",
        "sde.x0",
        "sde.t0",
        "lyapunov.v",
        "certificate.theorem",
        "certificate.p",
        "certificate.lambda",
        "certificate.rho",
        "certificate.kappa",
        "certificate.eta",
        "certificate.q",
        "certificate.beta_exp",
        "certificate.phi",
        "certificate.phi1",
        "certificate.phi2",
        "certificate.nu_coeffs",
        "scenarios.list",
        "scenarios.richness",
        "numerics.dt",
        "numerics.horizon",
        "numerics.n_paths",
        "numerics.seed",
        "numerics.method",
        "grid.x_min",
        "grid.x_max",
        "grid.x_points",
        "grid.t_span",
        "grid.t_points",
        "output.dir",
        "sweep.parameter",
        "sweep.values",
        "sweep.estimate",
    ]
)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a dict of raw string values.

    Blank lines and lines starting with # are skipped; surrounding quotes
    on values are stripped; later assignments win.  Unknown keys raise
    ConfigError.
    """
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in ("'", '"'):
            value = value[1:-1]
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def load_config(path) -> dict[str, str]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# typed accessors

def _require(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return cfg[key]


def _float(cfg: dict, key: str, default: float | None = None) -> float | None:
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {cfg[key]!r}") from exc


def _int(cfg: dict, key: str, default: int | None = None) -> int | None:
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {cfg[key]!r}") from exc


def _expr(cfg: dict, key: str, allowed_vars: set[str]) -> Expr:
    text = _require(cfg, key)
    try:
        e = parse(text)
    except ParseError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    extra = free_variables(e) - allowed_vars
    if extra:
        raise ConfigError(
            f"{key}: unexpected variable(s) {', '.join(sorted(extra))}"
        )
    return e


def _opt_expr(cfg: dict, key: str, allowed_vars: set[str]) -> Expr | None:
    return _expr(cfg, key, allowed_vars) if key in cfg else None


# ---------------------------------------------------------------------------
# builders

def build_bounds(cfg: dict) -> AmbiguityBounds:
    lo = _float(cfg, "ambiguity.sigma_lower")
    hi = _float(cfg, "ambiguity.sigma_upper")
    if lo is None or hi is None:
        raise ConfigError(
            "ambiguity.sigma_lower and ambiguity.sigma_upper are required"
        )
    try:
        return AmbiguityBounds(lo, hi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_sde(cfg: dict) -> SdeSpec:
    f = _expr(cfg, "sde.f", {"x", "t"})
    g = _expr(cfg, "sde.g", {"x", "t"})
    x0 = _float(cfg, "sde.x0")
    if x0 is None:
        raise ConfigError("missing required key 'sde.x0'")
    t0 = _float(cfg, "sde.t0", 0.0)
    if not (math.isfinite(x0) and math.isfinite(t0)):
        raise ConfigError("sde.x0 and sde.t0 must be finite")
    return SdeSpec(f=f, g=g, x0=x0, t0=t0)


def build_lyapunov(cfg: dict) -> LyapunovFn | None:
    if "lyapunov.v" not in cfg:
        return None
    return LyapunovFn.from_expr(_expr(cfg, "lyapunov.v", {"x", "t"}))


def build_certificate(cfg: dict, bounds: AmbiguityBounds) -> CertificateSpec:
    theorem = _require(cfg, "certificate.theorem").strip()
    p = _float(cfg, "certificate.p")
    if p is None:
        raise ConfigError("missing required key 'certificate.p'")
    nu = None
    if "certificate.nu_coeffs" in cfg:
        try:
            nu = tuple(
                float(c) for c in cfg["certificate.nu_coeffs"].split(",") if c.strip()
            )
        except ValueError as exc:
            raise ConfigError(f"certificate.nu_coeffs: {exc}") from exc
        if not nu:
            raise ConfigError("certificate.nu_coeffs: empty coefficient list")
    cert = CertificateSpec(
        theorem=theorem,
        p=p,
        lam=_float(cfg, "certificate.lambda"),
        rho=_float(cfg, "certificate.rho"),
        kappa=_float(cfg, "certificate.kappa"),
        eta=_float(cfg, "certificate.eta"),
        q=_float(cfg, "certificate.q"),
        beta_exp=_float(cfg, "certificate.beta_exp"),
        phi=_opt_expr(cfg, "certificate.phi", {"t"}),
        phi1=_opt_expr(cfg, "certificate.phi1", {"t"}),
        phi2=_opt_expr(cfg, "certificate.phi2", {"t"}),
        nu_coeffs=nu,
    )
    try:
        validate_certificate(cert, bounds)
    except CertificateError as exc:
        raise ConfigError(str(exc)) from exc
    return cert


def build_scenarios(cfg: dict, bounds: AmbiguityBounds):
    """The configured family; feedback_vxx reads V from lyapunov.v."""
    lyapunov = _opt_expr(cfg, "lyapunov.v", {"x", "t"})
    has_list = "scenarios.list" in cfg
    has_richness = "scenarios.richness" in cfg
    if has_list and has_richness:
        raise ConfigError("give scenarios.list or scenarios.richness, not both")
    if has_list:
        out = []
        for item in cfg["scenarios.list"].split(";"):
            item = item.strip()
            if not item:
                continue
            try:
                out.append(parse_scenario(item, lyapunov=lyapunov))
            except ScenarioError as exc:
                raise ConfigError(str(exc)) from exc
        if not out:
            raise ConfigError("scenarios.list: no scenarios given")
        return out
    richness = _int(cfg, "scenarios.richness", 3)
    try:
        return enumerate_family(bounds, richness, lyapunov=lyapunov)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_grid(cfg: dict, t0: float) -> CheckGrid:
    try:
        return CheckGrid.default(
            t0=t0,
            x_min=_float(cfg, "grid.x_min", 1e-3),
            x_max=_float(cfg, "grid.x_max", 10.0),
            x_points=_int(cfg, "grid.x_points", 200),
            t_span=_float(cfg, "grid.t_span", 20.0),
            t_points=_int(cfg, "grid.t_points", 200),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Philox keys hold the seed in one 64-bit word
SEED_LIMIT = 1 << 64

# the most steps, or piecewise_random levels, a run may have: far more than
# memory holds, and below numpy's limit on the size of one array
MAX_STEPS = 1 << 53


@dataclass(frozen=True)
class Numerics:
    dt: float
    horizon: float
    n_paths: int
    seed: int
    method: str


def build_numerics(cfg: dict) -> Numerics:
    num = Numerics(
        dt=_float(cfg, "numerics.dt", 1e-3),
        horizon=_float(cfg, "numerics.horizon", 200.0),
        n_paths=_int(cfg, "numerics.n_paths", 500),
        seed=_int(cfg, "numerics.seed", 0),
        method=cfg.get("numerics.method", "euler"),
    )
    if not (0 < num.dt < math.inf and 0 < num.horizon < math.inf):
        raise ConfigError(
            "numerics.dt and numerics.horizon must be positive and finite"
        )
    if num.dt > num.horizon:
        raise ConfigError("numerics.dt must not exceed numerics.horizon")
    if not num.horizon / num.dt < MAX_STEPS:
        raise ConfigError("numerics.horizon / numerics.dt: too many steps")
    if not 0 <= num.seed < SEED_LIMIT:
        raise ConfigError("numerics.seed must lie in [0, 2^64)")
    if num.n_paths < 1:
        raise ConfigError("numerics.n_paths must be >= 1")
    if num.method not in METHODS:
        raise ConfigError(f"numerics.method must be one of {METHODS}")
    return num
