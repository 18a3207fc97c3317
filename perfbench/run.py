"""gsde benchmark: three CLI workloads, byte-exact output checks, and an
outside-in per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/gsde).
Each repetition runs `gsde.cli.main` in a fresh single-threaded
interpreter, so every repetition pays the same import and allocation
costs.  Repetition 0 uses the pinned seed and its CSVs must match
digests.json byte for byte; later repetitions use seeds derived from
--seed and must pass the workload's invariants.  Repetitions run until
--seconds have passed (at least three).

--trace 0 prints the end-to-end metrics: setup_s (fresh interpreter to
gsde imported, median of one start per repetition), work_per_s_norm
(path-steps or grid points per second of main(), scaled by a fixed probe
to a host of constant speed, median over repetitions) and peak_rss_mb.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones, the tracing overhead, and
failed_frac; each traced count listed by the workload must equal the value
derived from its config.

The last line of standard output is the result as one JSON object; a run
manifest (machine, versions, seeds, config digests) is printed just above
it.  `--pin-digests` rewrites digests.json from the current source tree.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and, by inheritance, in every child:
# the Cesaro and log-growth checks call lstsq, which may otherwise start
# BLAS threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import UNITS, median_metrics  # noqa: E402
from workloads import PINNED_SEED, SIZES, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
DIGESTS = BENCH_DIR / "digests.json"
SCRATCH = ROOT / ".perfbench_out"

MIN_REPS = 3
# The probe's time on a 2-core Intel Xeon VM at its usual speed; work_per_s
# is scaled to a host on which the probe takes this long.
PROBE_NOMINAL_S = 0.15
CHILD_TIMEOUT_S = 150


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Rep:
    traced: bool
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # op -> reason
    main_s: float = 0.0
    probe_s: float = 0.0  # mean of the probes around the calls
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    layers: dict | None = None
    clean: bool = True  # every call returned its expected code
    digests: dict = field(default_factory=dict)  # call/file -> sha256

    @property
    def norm_s(self) -> float:
        """main_s on a host where the probe takes PROBE_NOMINAL_S."""
        return self.main_s * PROBE_NOMINAL_S / self.probe_s


def check_outputs(calls, out_root: Path, pins: dict | None):
    """Check each call's outputs under out_root/<call name>: the workload's
    invariants, then, when pins are given, every file's sha256.  Returns
    ({failed op: reason}, {call/file: sha256})."""
    failures, digests = {}, {}
    for call in calls:
        out_dir = out_root / call.name
        try:
            failures.update(call.check(out_dir))
        except (OSError, ValueError, IndexError) as exc:
            failures.update({op: f"unreadable output: {exc}" for op in call.ops})
        for name, ops in call.files.items():
            path = out_dir / name
            if not path.exists():
                failures.update({op: f"{name} missing" for op in ops})
                continue
            key = f"{call.name}/{name}"
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
            if pins is not None and pins.get(key) != digests[key]:
                failures.update({op: f"{name} differs from its pinned digest"
                                 for op in ops})
    return failures, digests


def count_mismatches(workload, size: str, layers: dict) -> list[str]:
    """Traced counts that differ from the values the workload's config
    fixes; a count whose wrapped name is gone is skipped."""
    return [f"traced {name} = {layers[name]}, expected {want}"
            for name, want in workload.expected_counts(size).items()
            if name in layers and layers[name] != want]


def run_rep(workload, size: str, seed: int, traced: bool, rep_dir: Path,
            pins: dict | None) -> Rep:
    """Run one repetition in a fresh interpreter and check its outputs."""
    rep = Rep(traced=traced)
    calls = workload.calls(size)
    all_ops = [op for call in calls for op in call.ops]
    rep.attempted = len(all_ops)
    rep_dir.mkdir(parents=True)
    argvs = []
    for call in calls:
        cfg = rep_dir / f"{call.name}.cfg"
        cfg.write_text(call.config)
        argvs.append(call.argv(cfg, rep_dir / "out" / call.name, seed))
    job, result_path = rep_dir / "job.json", rep_dir / "result.json"
    job.write_text(json.dumps({"src": str(SRC), "trace": traced, "calls": argvs}))
    with open(rep_dir / "stdout.txt", "w") as out, open(rep_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen([sys.executable, str(CHILD), str(job), str(result_path)],
                                stdout=out, stderr=err, cwd=rep_dir)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0 or not result_path.exists():
        tail = (rep_dir / "stderr.txt").read_text()[-2000:]
        rep.failures = {op: f"repetition process exited with {code}: {tail}"
                        for op in all_ops}
        rep.clean = False
        return rep
    result = json.loads(result_path.read_text())
    rep.main_s = sum(c["wall_s"] for c in result["calls"])
    rep.probe_s = statistics.fmean(result["probe_s"])
    rep.peak_rss_mb = result["peak_rss_mb"]
    rep.layers = result["layers"]
    rep.failures, rep.digests = check_outputs(calls, rep_dir / "out", pins)
    for call, outcome in zip(calls, result["calls"]):
        if outcome["code"] != 0:  # fails the whole repetition
            rep.clean = False
            reason = (f"{call.name}: " + (outcome["error"]
                      or f"exit code {outcome['code']}"))
            rep.failures = {op: reason for op in all_ops}
    rep.output_bytes = sum(p.stat().st_size for p in (rep_dir / "out").rglob("*")
                           if p.is_file())
    if rep.layers is not None:
        for reason in count_mismatches(workload, size, rep.layers):
            log(f"count self-check failed: {reason}")
            rep.failures.update({op: reason for op in all_ops})
    return rep


def setup_sample() -> float:
    """Time from spawning an interpreter to gsde imported and ready to read
    a config."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), "--ready", str(SRC)],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
        raise SystemExit("gsde failed to import")
    return elapsed


def manifest(args, workload) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        rev = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "gsde").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "size": args.size,
        "seed": args.seed,
        "pinned_seed": PINNED_SEED,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev,
        "source_sha256": src.hexdigest(),
        "config_sha256": {c.name: hashlib.sha256(c.config.encode()).hexdigest()
                          for c in workload.calls(args.size)},
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def rep_seed(base: int, k: int) -> int:
    return PINNED_SEED if k == 0 else base * 1000 + k


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    pins_all = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pins = pins_all.get(workload.name, {}).get(args.size)
    work = workload.work(args.size)
    run_dir = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    reps: list[Rep] = []
    setup_times = []
    try:
        if not args.trace:
            setup_sample()  # fills the bytecode cache; not measured
        t0 = time.monotonic()
        k = 0
        while (k < MIN_REPS * (1 + args.trace)
               or time.monotonic() - t0 < args.seconds):
            if not args.trace:
                setup_times.append(setup_sample())
            seed = rep_seed(args.seed, k)
            traced = bool(args.trace) and k % 2 == 1
            rep = run_rep(workload, args.size, seed, traced, run_dir / f"rep-{k}",
                          pins if seed == PINNED_SEED else None)
            shutil.rmtree(run_dir / f"rep-{k}", ignore_errors=True)
            log(f"rep {k} seed {seed} traced {int(traced)}: main {rep.main_s:.3f} s, "
                f"probe {rep.probe_s:.3f} s, "
                f"{len(rep.failures)}/{rep.attempted} failed")
            for op, reason in sorted(rep.failures.items()):
                log(f"  FAILED {op}: {reason}")
            reps.append(rep)
            k += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = sum(r.attempted for r in reps)
    failed = sum(len(r.failures) for r in reps)
    timed = [r for r in reps if r.clean]
    traced = [r for r in timed if r.traced]
    plain = [r for r in timed if not r.traced]
    if not plain or (args.trace and not traced):
        raise SystemExit("no repetition ran all its calls to completion")
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = _metric(statistics.median(setup_times), "s")
        metrics["work_per_s_norm"] = _metric(
            statistics.median(work / r.norm_s for r in plain), "1/s")
        metrics["peak_rss_mb"] = _metric(
            statistics.median(r.peak_rss_mb for r in plain), "MB")
    else:
        layers = median_metrics([r.layers for r in traced if r.layers is not None])
        for name, value in layers.items():
            metrics[name] = _metric(value, UNITS[name])
        metrics["cli.output_bytes"] = _metric(
            statistics.median(r.output_bytes for r in traced), "bytes")
        metrics["trace.overhead_s"] = _metric(
            statistics.median(r.norm_s for r in traced)
            - statistics.median(r.norm_s for r in plain), "s")
        metrics["wall.work_per_s"] = _metric(
            statistics.median(work / r.main_s for r in plain), "1/s")
        metrics["host.probe_s"] = _metric(
            statistics.median(r.probe_s for r in timed), "s")
        metrics["failed_frac"] = _metric(failed / attempted, "ratio")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def pin_digests() -> None:
    """Record the digests of every workload's outputs at the pinned seed."""
    pins = {}
    for name, workload in WORKLOADS.items():
        for size in SIZES:
            run_dir = SCRATCH / f"pin-{os.getpid()}"
            try:
                rep = run_rep(workload, size, PINNED_SEED, False, run_dir, None)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if rep.failures:
                raise SystemExit(f"{name}/{size} fails its invariants: {rep.failures}")
            pins.setdefault(name, {})[size] = dict(sorted(rep.digests.items()))
            log(f"pinned {name}/{size}: {len(rep.digests)} files")
    DIGESTS.write_text(json.dumps(pins, indent=1) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny is for the benchmark's self-tests")
    parser.add_argument("--pin-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.pin_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gsde" / "cli.py").is_file():
        log(f"no gsde source tree at {SRC}; run from a source checkout")
        return 2
    if args.pin_digests:
        pin_digests()
        return 0
    result = run(args)
    print("manifest " + json.dumps(manifest(args, WORKLOADS[args.workload])))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
