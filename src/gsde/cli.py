"""Command line front end.

    gsde certify  --config cfg [--seed N] [--out DIR] check a certificate
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
import math
import sys
from pathlib import Path

from .config import (
    ConfigError,
    build_check,
    build_run,
    build_sweep,
    load_config,
    make_output_dir,
    single_scenario,
)
from .csvio import float_cells, write_csv
from .estimator import EstimationError, estimate_exponent
from .expr import EvalDomainError
from .integrator import EXPLOSION_THRESHOLD, integrate, write_path_csv
from .lyapunov import (
    CertificateError,
    SampleHolder,
    check_certificate,
    verdict_line,
    write_certificate_csv,
)
from .scenario import ScenarioError

__all__ = ["main", "entry"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsde",
        description="volatility-ambiguous SDE lab: certificates, rate "
        "estimates, path simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to key=value config")
        sp.add_argument("--seed", type=int, help="override numerics.seed")
        sp.add_argument("--out", help="output directory (default: output.dir or .)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        out_dir = make_output_dir(cfg, args.out)
        return _COMMANDS[args.command][1](cfg, out_dir)
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

def _check(cfg, held=None):
    """Check the configured certificate and return its report; held, the
    SampleHolder of a sweep, lets the check reuse what its last point
    built and sampled from inputs that did not change."""
    return check_certificate(*build_check(cfg, held), held=held)


def _estimate(cfg, point=""):
    """Estimate the configured family's rates.  Each scenario with flagged
    paths gets a stderr line, after point (a sweep's "param=value: ", so
    the line names its point): its statistics, and so the family sup,
    cover its unflagged paths only, and a path flagged at |X| >
    EXPLOSION_THRESHOLD had a rate of at least
    log(EXPLOSION_THRESHOLD/|x0|)/horizon at its flag time."""
    bounds, sde, scenarios, num, _ = build_run(cfg, rates=True)
    est = estimate_exponent(
        sde,
        scenarios,
        bounds,
        horizon=num.horizon,
        dt=num.dt,
        n_paths=num.n_paths,
        seed=num.seed,
        method=num.method,
    )
    floor = ""
    if abs(sde.x0) < EXPLOSION_THRESHOLD:
        rate = math.log(EXPLOSION_THRESHOLD / abs(sde.x0)) / num.horizon
        floor = (f"; a path flagged at |X| > {EXPLOSION_THRESHOLD:g} had a rate "
                 f"of at least {rate:.6g} at its flag time")
    for s in est.scenarios:
        if s.n_flagged:
            print(f"note: {point}scenario {s.label} flagged {s.n_flagged} of {s.n_paths} "
                  f"paths; its statistics and the family sup cover the survivors "
                  f"only{floor}", file=sys.stderr)
    return est


def _cmd_certify(cfg, out_dir: Path) -> int:
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


def _cmd_exponent(cfg, out_dir: Path) -> int:
    est = _estimate(cfg)
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


def _cmd_simulate(cfg, out_dir: Path) -> int:
    bounds, sde, scenarios, num, grid = build_run(cfg)
    scenario = single_scenario(scenarios)
    # every path of the call runs on grid: its t column is formatted once
    time_cells = float_cells(grid)
    n_exploded = 0
    for p in range(num.n_paths):
        run = integrate(
            sde, scenario, bounds, grid, num.seed, method=num.method, path_index=p
        )
        n_exploded += int(run.exploded)
        write_path_csv(out_dir / f"path_{p:03d}.csv", run, time_cells)
    label = scenario.label()
    msg = f"wrote {num.n_paths} path file(s) for scenario {label} to {out_dir}"
    if n_exploded:
        msg += f" ({n_exploded} flagged)"
    print(msg)
    return 0


def _cmd_sweep(cfg, out_dir: Path) -> int:
    sweep = build_sweep(cfg)
    param = sweep.parameter
    rows = []
    held = SampleHolder()  # each point's check hands its sample to the next
    for v, sub in sweep.points(cfg):
        report = _check(sub, held)
        exponent = (_estimate(sub, f"{param}={v:g}: ").family_sup_mean
                    if sweep.estimate else None)
        rows.append((param, v, report.granted, report.bound, exponent))
        verdict = (f"granted (bound {report.bound:.6g})" if report.granted
                   else "withheld")
        rate = f", estimated rate {exponent:.6g}" if exponent is not None else ""
        print(f"{param}={v:g}: {verdict}{rate}")

    write_csv(
        out_dir / "sweep.csv",
        ("parameter", "value", "granted", "bound", "exponent"),
        rows,
    )
    n_granted = sum(granted for _, _, granted, _, _ in rows)
    print(f"sweep over {param}: {n_granted}/{len(rows)} granted")
    return 0


# name -> (help, handler): the parser's subcommands and main's dispatch
_COMMANDS = {
    "certify": ("machine-check a stability/instability certificate", _cmd_certify),
    "exponent": ("estimate pathwise rates over a scenario family", _cmd_exponent),
    "simulate": ("simulate driver and state paths for one scenario", _cmd_simulate),
    "sweep": ("re-check a certificate along a parameter grid", _cmd_sweep),
}


if __name__ == "__main__":
    entry()
