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
import sys
from pathlib import Path

from .config import (
    ConfigError,
    _refused,
    build_bounds,
    build_certificate,
    build_grid,
    build_lyapunov,
    build_numerics,
    build_scenarios,
    build_sde,
    build_sweep,
    load_config,
    make_output_dir,
    single_scenario,
)
from .csvio import float_cells, write_csv
from .estimator import EstimationError, check_x0, estimate_exponent
from .expr import EvalDomainError
from .integrator import integrate, write_path_csv
from .lyapunov import (
    CertificateError,
    check_certificate,
    verdict_line,
    write_certificate_csv,
)
from .scenario import ScenarioError, check_streams, uniform_grid

__all__ = ["main", "entry"]


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
        if args.seed is not None:
            _refused(check_streams, args.seed, message=lambda exc: f"--{exc}")
        cfg = load_config(args.config)
        out_dir = make_output_dir(cfg, args.out)
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


# ---------------------------------------------------------------------------
# subcommands

def _check(cfg):
    """Check the configured certificate and return its report."""
    bounds = build_bounds(cfg)
    sde = build_sde(cfg)
    lyap = build_lyapunov(cfg)
    cert = build_certificate(cfg, bounds)
    grid = build_grid(cfg, sde.t0)
    return check_certificate(lyap, sde, bounds, cert, grid)


def _family(cfg):
    """The configured band, SDE, family and numerics, and the time grid
    they run on.  A grid or a piecewise_random level count that cannot be
    built is a config error, found before any path array is sized."""
    bounds = build_bounds(cfg)
    sde = build_sde(cfg)
    scenarios = build_scenarios(cfg, bounds)
    num = build_numerics(cfg, scenarios)
    grid = _refused(uniform_grid, sde.t0, num.horizon, num.dt,
                    message=lambda exc: f"sde.t0 + numerics.horizon: the time {exc}")
    return bounds, sde, scenarios, num, grid


def _estimate(cfg, args):
    """Estimate the configured family's rates; --seed overrides the
    config's seed."""
    bounds, sde, scenarios, num, _ = _family(cfg)
    _refused(check_x0, sde.x0, message=lambda exc: f"sde.{exc}")
    return estimate_exponent(
        sde,
        scenarios,
        bounds,
        horizon=num.horizon,
        dt=num.dt,
        n_paths=num.n_paths,
        seed=num.seed if args.seed is None else args.seed,
        method=num.method,
    )


def _cmd_certify(cfg, args, out_dir: Path) -> int:
    report = _check(cfg)
    write_certificate_csv(out_dir / "certificate.csv", report)
    write_csv(
        out_dir / "verdict.csv",
        ("theorem", "granted", "bound", "lambda", "p", "caveats"),
        [(report.theorem, report.granted, report.bound, report.lam, report.p,
          "; ".join(report.caveats))],
    )
    print(verdict_line(report))
    for caveat in report.caveats:
        print(f"caveat: {caveat}")
    return 0 if report.granted else 1


def _cmd_exponent(cfg, args, out_dir: Path) -> int:
    est = _estimate(cfg, args)
    rows = [
        (s.label, s.mean, s.max, s.stderr, s.slope, s.n_paths, s.n_flagged,
         est.horizon)
        for s in est.scenarios
    ]
    rows.append(("family_sup_mean", est.family_sup_mean, None, None, None,
                 est.n_paths, None, est.horizon))
    rows.append(("family_sup_max", None, est.family_sup, None, None,
                 est.n_paths, None, est.horizon))
    write_csv(
        out_dir / "exponent.csv",
        ("scenario", "mean_exponent", "max_exponent", "stderr", "slope",
         "n_paths", "n_flagged", "horizon"),
        rows,
    )
    print(
        f"family sup of mean rates {est.family_sup_mean:.6g} "
        f"(worst scenario {est.argmax_label}); "
        f"sup of per-path maxima {est.family_sup:.6g}"
    )
    return 0


def _cmd_simulate(cfg, args, out_dir: Path) -> int:
    bounds, sde, scenarios, num, grid = _family(cfg)
    scenario = single_scenario(scenarios)
    seed = num.seed if args.seed is None else args.seed
    # every path of the call runs on grid: its t column is formatted once
    time_cells = float_cells(grid)
    n_exploded = 0
    for p in range(num.n_paths):
        run = integrate(
            sde, scenario, bounds, grid, seed, method=num.method, path_index=p
        )
        n_exploded += int(run.exploded)
        write_path_csv(out_dir / f"path_{p:03d}.csv", run, time_cells)
    label = scenario.label()
    msg = f"wrote {num.n_paths} path file(s) for scenario {label} to {out_dir}"
    if n_exploded:
        msg += f" ({n_exploded} flagged)"
    print(msg)
    return 0


def _cmd_sweep(cfg, args, out_dir: Path) -> int:
    sweep = build_sweep(cfg)
    param = sweep.parameter
    rows = []
    for v, sub in sweep.points(cfg):
        report = _check(sub)
        exponent = _estimate(sub, args).family_sup_mean if sweep.estimate else None
        rows.append((param, v, report.granted, report.bound, exponent))
        print(
            f"{param}={v:g}: "
            + (
                f"granted (bound {report.bound:.6g})"
                if report.granted
                else "withheld"
            )
            + (f", estimated rate {exponent:.6g}" if exponent is not None else "")
        )

    write_csv(
        out_dir / "sweep.csv",
        ("parameter", "value", "granted", "bound", "exponent"),
        rows,
    )
    n_granted = sum(granted for _, _, granted, _, _ in rows)
    print(f"sweep over {param}: {n_granted}/{len(rows)} granted")
    return 0


if __name__ == "__main__":
    entry()
