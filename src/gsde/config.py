"""Flat key = value config files and builders for the library objects.

The file format is one `key = value` pair per line, `#` comment lines,
optional single or double quotes around values.  Keys are namespaced with
dots; unknown keys are rejected so typos fail loudly instead of silently
falling back to defaults.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .estimator import check_x0
from .expr import Expr, ParseError, free_variables, parse
from .gcalc import AmbiguityBounds
from .integrator import METHODS, SdeSpec
from .lyapunov import (
    CERT_PARAMS,
    TIME_WEIGHTS,
    CertificateError,
    CertificateSpec,
    CheckGrid,
    LyapunovFn,
    SampleHolder,
    validate_certificate,
)
from .scenario import (
    ScenarioError,
    check_levels,
    check_run,
    check_streams,
    enumerate_family,
    parse_scenario,
    uniform_grid,
)

__all__ = [
    "ConfigError",
    "KNOWN_KEYS",
    "Numerics",
    "parse_config_text",
    "load_config",
    "make_output_dir",
    "build_bounds",
    "build_sde",
    "build_lyapunov",
    "build_certificate",
    "build_scenarios",
    "single_scenario",
    "build_grid",
    "build_check",
    "build_numerics",
    "build_run",
    "Sweep",
    "build_sweep",
]


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Numerics:
    dt: float = 1e-3
    horizon: float = 200.0
    n_paths: int = 500
    seed: int = 0
    method: str = "euler"


# the keys and defaults of a table-read section, owned by what it builds:
# numerics.<name> by the fields of Numerics, grid.<name> by the keyword
# arguments of CheckGrid.default besides t0
_NUMERICS = {f.name: f.default for f in fields(Numerics)}
_GRID = {
    name: arg.default
    for name, arg in inspect.signature(CheckGrid.default).parameters.items()
    if name != "t0"
}

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
        *(f"certificate.{key}" for key, _, _ in CERT_PARAMS.values()),
        *(f"certificate.{name}" for name in TIME_WEIGHTS),
        "certificate.nu_coeffs",
        "scenarios.list",
        "scenarios.richness",
        *(f"numerics.{name}" for name in _NUMERICS),
        *(f"grid.{name}" for name in _GRID),
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


def load_config(path, seed: int | None = None) -> dict[str, str]:
    """The config file at path; seed (the --seed flag), when given, is
    refused by the flag's name before the file is read and replaces the
    file's numerics seed."""
    if seed is not None:
        _refused(check_streams, seed, message=lambda exc: f"--{exc}")
    text = _refused(Path(path).read_text,
                    message=lambda exc: f"cannot read config {path}: {exc}")
    cfg = parse_config_text(text)
    if seed is not None:
        cfg[_in_numerics("seed")] = str(seed)
    return cfg


def make_output_dir(cfg: dict, out: str | None) -> Path:
    """The output directory, made if absent: `out` (the --out flag) if
    given, else output.dir, else the working directory.  One that cannot
    be made, such as a path that names a file or lies below one, is
    refused naming where it came from."""
    key, path = ("--out", out) if out is not None else (
        "output.dir", cfg.get("output.dir", "."))
    _refused(Path(path).mkdir, parents=True, exist_ok=True,
             message=lambda exc: f"{key}: cannot create directory: {exc}")
    return Path(path)


# ---------------------------------------------------------------------------
# typed accessors

def _refused(fn, *args, message=str, **kwargs):
    """fn(*args, **kwargs), with a refusal of the value (a ValueError, which
    ScenarioError is, a CertificateError, a ParseError, or the file
    system's OSError) raised as a ConfigError; message(refusal) names the
    key."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, CertificateError, ParseError, OSError) as exc:
        raise ConfigError(message(exc)) from exc


def _floats(cfg: dict, key: str, empty: str) -> tuple[float, ...]:
    """The comma-separated numbers of a present key; none is refused with
    `empty`."""
    values = _refused(
        lambda: tuple(float(c) for c in cfg[key].split(",") if c.strip()),
        message=lambda exc: f"{key}: {exc}",
    )
    if not values:
        raise ConfigError(f"{key}: {empty}")
    return values


def _require(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return cfg[key]


def _value(cfg: dict, key: str, kind=float, default=None):
    """The value of key as kind (float, int or str); default if absent."""
    if key not in cfg:
        return default
    what = {float: "a number", int: "an integer"}.get(kind)
    return _refused(kind, cfg[key],
                    message=lambda _: f"{key}: not {what}: {cfg[key]!r}")


def _section(cfg: dict, section: str, defaults: dict) -> dict:
    """The present keys of a table-read section, by name, each read as the
    type of its default."""
    return {name: _value(cfg, f"{section}.{name}", type(default))
            for name, default in defaults.items() if f"{section}.{name}" in cfg}


def _expr(cfg: dict, key: str, allowed_vars: set[str]) -> Expr:
    e = _refused(parse, _require(cfg, key), message=lambda exc: f"{key}: {exc}")
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
    lo = _value(cfg, "ambiguity.sigma_lower")
    hi = _value(cfg, "ambiguity.sigma_upper")
    if lo is None or hi is None:
        raise ConfigError(
            "ambiguity.sigma_lower and ambiguity.sigma_upper are required"
        )
    return _refused(AmbiguityBounds, lo, hi)


def build_sde(cfg: dict) -> SdeSpec:
    f = _expr(cfg, "sde.f", {"x", "t"})
    g = _expr(cfg, "sde.g", {"x", "t"})
    _require(cfg, "sde.x0")
    x0 = _value(cfg, "sde.x0")
    t0 = _value(cfg, "sde.t0", float, 0.0)
    if not (math.isfinite(x0) and math.isfinite(t0)):
        raise ConfigError("sde.x0 and sde.t0 must be finite")
    return SdeSpec(f=f, g=g, x0=x0, t0=t0)


def build_lyapunov(cfg: dict) -> LyapunovFn:
    if "lyapunov.v" not in cfg:
        raise ConfigError("lyapunov.v is required for this command")
    return LyapunovFn.from_expr(_expr(cfg, "lyapunov.v", {"x", "t"}))


def build_certificate(cfg: dict, bounds: AmbiguityBounds) -> CertificateSpec:
    theorem = _require(cfg, "certificate.theorem").strip()
    keys = {name: f"certificate.{key}" for name, (key, _, _) in CERT_PARAMS.items()}
    _require(cfg, keys["p"])
    nu = None
    if "certificate.nu_coeffs" in cfg:
        nu = _floats(cfg, "certificate.nu_coeffs", "empty coefficient list")
    cert = CertificateSpec(
        theorem=theorem,
        **{name: _value(cfg, key) for name, key in keys.items()},
        **{name: _opt_expr(cfg, f"certificate.{name}", {"t"})
           for name in TIME_WEIGHTS},
        nu_coeffs=nu,
    )
    _refused(validate_certificate, cert, bounds)
    return cert


def build_scenarios(cfg: dict, bounds: AmbiguityBounds, t0: float = 0.0):
    """The configured family; feedback_vxx reads V from lyapunov.v, and the
    built-in family's switchers count their switch times from t0, the
    run's sde.t0."""
    lyapunov = _opt_expr(cfg, "lyapunov.v", {"x", "t"})
    has_list = "scenarios.list" in cfg
    has_richness = "scenarios.richness" in cfg
    if has_list and has_richness:
        raise ConfigError("give scenarios.list or scenarios.richness, not both")
    if has_list:
        out = [
            _refused(parse_scenario, item, lyapunov=lyapunov)
            for item in cfg["scenarios.list"].split(";")
            if item.strip()
        ]
        if not out:
            raise ConfigError("scenarios.list: no scenarios given")
        return out
    richness = _value(cfg, "scenarios.richness", int, 3)
    return _refused(enumerate_family, bounds, richness, lyapunov=lyapunov, t0=t0)


def single_scenario(scenarios):
    """The one scenario simulate runs, refused unless the configured
    family has exactly one."""
    if len(scenarios) != 1:
        raise ConfigError(f"simulate needs exactly one scenario, got {len(scenarios)}")
    return scenarios[0]


def build_grid(cfg: dict, t0: float) -> CheckGrid:
    """The check grid from t0; scenario's time-grid rule refuses the times,
    and a refusal that starts with an argument's name reads it as its key."""
    return _refused(
        CheckGrid.default, t0=t0, **_section(cfg, "grid", _GRID),
        message=lambda exc: (
            f"the time {exc}" if isinstance(exc, ScenarioError)
            else re.sub(rf"^({'|'.join(_GRID)})\b", r"grid.\1", str(exc))),
    )


def build_check(cfg: dict, held: SampleHolder | None = None) -> tuple:
    """(lyapunov, sde, bounds, certificate, grid), check_certificate's
    arguments, built in the order bounds, sde, lyapunov, certificate,
    grid.  Given a holder, a builder whose inputs are bit-equal to those
    of the holder's last build returns that build's product: its inputs
    are the text of the keys it reads and the built values it takes.
    Only a product built without error is held."""
    built = {} if held is None else held.built
    bounds = _build_once(built, _text(cfg, "ambiguity."), build_bounds, cfg)
    sde = _build_once(built, _text(cfg, "sde."), build_sde, cfg)
    lyap = _build_once(built, _text(cfg, "lyapunov.v"), build_lyapunov, cfg)
    cert = _build_once(built, (_text(cfg, "certificate."), bounds),
                       build_certificate, cfg, bounds)
    grid = _build_once(built, _text(cfg, "grid.", "sde.t0"), build_grid, cfg, sde.t0)
    return lyap, sde, bounds, cert, grid


def _text(cfg: dict, *prefixes: str) -> tuple:
    """The (key, text) pairs of the keys that start with a prefix, in key
    order."""
    return tuple(sorted(item for item in cfg.items() if item[0].startswith(prefixes)))


def _build_once(built: dict, inputs, build, cfg: dict, *args):
    """build(cfg, *args), or what built holds for build when it was built
    from equal inputs; a held product that will not be reused is let go
    first."""
    last = built.pop(build, None)
    if last is not None and last[0] == inputs:
        product = last[1]
    else:
        last = None
        product = build(cfg, *args)
    built[build] = inputs, product
    return product


def _in_numerics(exc: Exception) -> str:
    """A run rule's refusal, its names as numerics keys."""
    return re.sub(rf"\b({'|'.join(_NUMERICS)})\b", r"numerics.\1", str(exc))


def build_numerics(cfg: dict, scenarios=()) -> Numerics:
    """The run's numerics, refused unless scenario's rules hold for them
    and for every scenario of `scenarios`."""
    num = Numerics(**_section(cfg, "numerics", _NUMERICS))
    _refused(check_run, num.horizon, num.dt, message=_in_numerics)
    _refused(check_streams, num.seed, num.n_paths, message=_in_numerics)
    if num.method not in METHODS:
        raise ConfigError(_in_numerics(f"method must be one of {METHODS}"))
    _refused(check_levels, scenarios, num.horizon, message=_in_numerics)
    return num


def build_run(cfg: dict, rates: bool = False):
    """(bounds, sde, scenarios, numerics, grid): the configured run.  A grid
    or a piecewise_random level count that cannot be built is a config
    error, found before any path array is sized; with rates, so is an x0
    that no rate can be normalized by."""
    bounds = build_bounds(cfg)
    sde = build_sde(cfg)
    scenarios = build_scenarios(cfg, bounds, sde.t0)
    num = build_numerics(cfg, scenarios)
    grid = _refused(uniform_grid, sde.t0, num.horizon, num.dt, message=lambda exc:
                    f"sde.t0 + {_in_numerics('horizon')}: the time {exc}")
    if rates:
        _refused(check_x0, sde.x0, message=lambda exc: f"sde.{exc}")
    return bounds, sde, scenarios, num, grid


@dataclass(frozen=True)
class Sweep:
    """A sweep: the values of one placeholder {parameter}, each with the
    text it was given in, which replaces the placeholder."""

    parameter: str
    values: tuple[float, ...]
    texts: tuple[str, ...]
    estimate: bool  # estimate the family's rate at each value too

    def points(self, cfg: dict):
        """(value, config) for each value: cfg with the value's text in
        place of the placeholder in every swept key."""
        placeholder = "{" + self.parameter + "}"
        for v, text in zip(self.values, self.texts):
            yield v, {k: (val.replace(placeholder, text) if _swept(k) else val)
                      for k, val in cfg.items()}


def _swept(key: str) -> bool:
    """Whether a sweep fills its placeholder in key; output.dir is made once."""
    return not key.startswith("sweep.") and key != "output.dir"


def build_sweep(cfg: dict) -> Sweep:
    """The configured sweep, refused unless both sweep keys are present,
    the parameter is nonempty, every value is a finite number,
    sweep.estimate is true or false and some swept value holds the
    placeholder."""
    if "sweep.parameter" not in cfg or "sweep.values" not in cfg:
        raise ConfigError("sweep needs sweep.parameter and sweep.values")
    param = cfg["sweep.parameter"].strip()
    if not param:
        raise ConfigError("sweep.parameter must be nonempty")
    values = _floats(cfg, "sweep.values", "no values given")
    if not all(map(math.isfinite, values)):
        raise ConfigError("sweep.values: every value must be finite")
    flag = cfg.get("sweep.estimate", "false").strip().lower()
    if flag not in ("true", "false"):
        raise ConfigError("sweep.estimate must be true or false")
    placeholder = "{" + param + "}"
    if not any(placeholder in val for k, val in cfg.items() if _swept(k)):
        raise ConfigError(f"sweep.parameter: no config value contains {placeholder}")
    texts = tuple(c.strip() for c in cfg["sweep.values"].split(",") if c.strip())
    return Sweep(param, values, texts, flag == "true")
