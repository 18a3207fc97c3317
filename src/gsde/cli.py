"""Command line front end.

    gsde certify  --config cfg [--out DIR]            check a certificate
    gsde exponent --config cfg [--seed N] [--out DIR] estimate rates
    gsde simulate --config cfg [--seed N] [--out DIR] write driver/path CSVs
    gsde sweep    --config cfg [--seed N] [--out DIR] re-check over a grid

Exit codes: 0 success (certificate granted / estimate written), 1
certificate checked but withheld, 2 malformed config or arguments, 3
runtime failure while computing (domain error, flagged-out batch, ...).
All outputs are plain CSV with 17-significant-digit floats; a rerun with
the same config and seed writes byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .config import (
    SEED_LIMIT,
    ConfigError,
    build_bounds,
    build_certificate,
    build_grid,
    build_lyapunov,
    build_numerics,
    build_scenarios,
    build_sde,
    load_config,
)
from .estimator import EstimationError, estimate_exponent
from .expr import EvalDomainError
from .integrator import integrate, write_path_csv
from .lyapunov import (
    CertificateError,
    check_certificate,
    verdict_line,
    write_certificate_csv,
)
from .scenario import ScenarioError, uniform_grid

__all__ = ["main", "entry"]


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    return format(float(v), ".17g")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsde",
        description="volatility-ambiguous SDE lab: certificates, rate "
        "estimates, path simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("certify", "machine-check a stability/instability certificate"),
        ("exponent", "estimate pathwise rates over a scenario family"),
        ("simulate", "simulate driver and state paths for one scenario"),
        ("sweep", "re-check a certificate along a parameter grid"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to key=value config")
        sp.add_argument(
            "--seed", type=int, default=None, help="override numerics.seed"
        )
        sp.add_argument(
            "--out", default=None, help="output directory (default: output.dir or .)"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and not 0 <= args.seed < SEED_LIMIT:
            raise ConfigError("--seed must lie in [0, 2^64)")
        cfg = load_config(args.config)
        out_dir = Path(
            args.out if args.out is not None else cfg.get("output.dir", ".")
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = {
            "certify": _cmd_certify,
            "exponent": _cmd_exponent,
            "simulate": _cmd_simulate,
            "sweep": _cmd_sweep,
        }[args.command]
        return handler(cfg, args, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EvalDomainError, ScenarioError, CertificateError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


def _resolve_seed(cfg, args) -> int:
    num = build_numerics(cfg)
    return num.seed if args.seed is None else args.seed


# ---------------------------------------------------------------------------
# subcommands

def _require_lyapunov(cfg):
    lyap = build_lyapunov(cfg)
    if lyap is None:
        raise ConfigError("lyapunov.v is required for this command")
    return lyap


def _cmd_certify(cfg, args, out_dir: Path) -> int:
    bounds = build_bounds(cfg)
    sde = build_sde(cfg)
    lyap = _require_lyapunov(cfg)
    cert = build_certificate(cfg, bounds)
    grid = build_grid(cfg, sde.t0)
    report = check_certificate(lyap, sde, bounds, cert, grid)
    write_certificate_csv(out_dir / "certificate.csv", report)
    with open(out_dir / "verdict.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theorem", "granted", "bound", "lambda", "p", "caveats"])
        writer.writerow(
            [
                report.theorem,
                "true" if report.granted else "false",
                _fmt(report.bound),
                _fmt(report.lam),
                _fmt(report.p),
                "; ".join(report.caveats),
            ]
        )
    print(verdict_line(report))
    for caveat in report.caveats:
        print(f"caveat: {caveat}")
    return 0 if report.granted else 1


def _cmd_exponent(cfg, args, out_dir: Path) -> int:
    bounds = build_bounds(cfg)
    sde = build_sde(cfg)
    lyap = build_lyapunov(cfg)
    scenarios = build_scenarios(
        cfg, bounds, lyapunov=lyap.V if lyap is not None else None
    )
    num = build_numerics(cfg)
    seed = _resolve_seed(cfg, args)
    est = estimate_exponent(
        sde,
        scenarios,
        bounds,
        horizon=num.horizon,
        dt=num.dt,
        n_paths=num.n_paths,
        seed=seed,
        method=num.method,
    )
    with open(out_dir / "exponent.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "scenario",
                "mean_exponent",
                "max_exponent",
                "stderr",
                "slope",
                "n_paths",
                "n_flagged",
                "horizon",
            ]
        )
        for s in est.scenarios:
            writer.writerow(
                [
                    s.label,
                    _fmt(s.mean),
                    _fmt(s.max),
                    _fmt(s.stderr),
                    _fmt(s.slope),
                    s.n_paths,
                    s.n_flagged,
                    _fmt(est.horizon),
                ]
            )
        writer.writerow(
            ["family_sup_mean", _fmt(est.family_sup_mean), "", "", "",
             est.n_paths, "", _fmt(est.horizon)]
        )
        writer.writerow(
            ["family_sup_max", "", _fmt(est.family_sup), "", "",
             est.n_paths, "", _fmt(est.horizon)]
        )
    print(
        f"family sup of mean rates {est.family_sup_mean:.6g} "
        f"(worst scenario {est.argmax_label}); "
        f"sup of per-path maxima {est.family_sup:.6g}"
    )
    return 0


def _cmd_simulate(cfg, args, out_dir: Path) -> int:
    bounds = build_bounds(cfg)
    sde = build_sde(cfg)
    lyap = build_lyapunov(cfg)
    scenarios = build_scenarios(
        cfg, bounds, lyapunov=lyap.V if lyap is not None else None
    )
    if len(scenarios) != 1:
        raise ConfigError(
            f"simulate needs exactly one scenario, got {len(scenarios)}"
        )
    num = build_numerics(cfg)
    seed = _resolve_seed(cfg, args)
    grid = uniform_grid(sde.t0, num.horizon, num.dt)
    n_exploded = 0
    for p in range(num.n_paths):
        run = integrate(
            sde, scenarios[0], bounds, grid, seed, method=num.method, path_index=p
        )
        n_exploded += int(run.exploded)
        write_path_csv(out_dir / f"path_{p:03d}.csv", run)
    label = scenarios[0].label()
    msg = f"wrote {num.n_paths} path file(s) for scenario {label} to {out_dir}"
    if n_exploded:
        msg += f" ({n_exploded} flagged)"
    print(msg)
    return 0


def _cmd_sweep(cfg, args, out_dir: Path) -> int:
    if "sweep.parameter" not in cfg or "sweep.values" not in cfg:
        raise ConfigError("sweep needs sweep.parameter and sweep.values")
    param = cfg["sweep.parameter"].strip()
    if not param:
        raise ConfigError("sweep.parameter must be nonempty")
    try:
        values = [float(s) for s in cfg["sweep.values"].split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"sweep.values: {exc}") from exc
    if not values:
        raise ConfigError("sweep.values: no values given")
    flag = cfg.get("sweep.estimate", "false").strip().lower()
    if flag not in ("true", "false"):
        raise ConfigError("sweep.estimate must be true or false")
    with_estimate = flag == "true"
    placeholder = "{" + param + "}"

    rows = []
    for v in values:
        sub = {
            k: (val if k.startswith("sweep.") else val.replace(placeholder, repr(v)))
            for k, val in cfg.items()
        }
        bounds = build_bounds(sub)
        sde = build_sde(sub)
        lyap = build_lyapunov(sub)
        if lyap is None:
            raise ConfigError("lyapunov.v is required for sweep")
        cert = build_certificate(sub, bounds)
        grid = build_grid(sub, sde.t0)
        report = check_certificate(lyap, sde, bounds, cert, grid)
        exponent = None
        if with_estimate:
            scenarios = build_scenarios(sub, bounds, lyapunov=lyap.V)
            num = build_numerics(sub)
            seed = _resolve_seed(sub, args)
            est = estimate_exponent(
                sde,
                scenarios,
                bounds,
                horizon=num.horizon,
                dt=num.dt,
                n_paths=num.n_paths,
                seed=seed,
                method=num.method,
            )
            exponent = est.family_sup_mean
        rows.append((v, report, exponent))
        print(
            f"{param}={v:g}: "
            + (
                f"granted (bound {report.bound:.6g})"
                if report.granted
                else "withheld"
            )
            + (f", estimated rate {exponent:.6g}" if exponent is not None else "")
        )

    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "value", "granted", "bound", "exponent"])
        for v, report, exponent in rows:
            writer.writerow(
                [
                    param,
                    _fmt(v),
                    "true" if report.granted else "false",
                    _fmt(report.bound),
                    _fmt(exponent) if exponent is not None else "",
                ]
            )
    n_granted = sum(1 for _, r, _ in rows if r.granted)
    print(f"sweep over {param}: {n_granted}/{len(rows)} granted")
    return 0


if __name__ == "__main__":
    entry()
