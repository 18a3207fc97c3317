"""One benchmark repetition in a fresh interpreter.

    python3 child.py JOB_JSON RESULT_JSON     run the calls listed in the job
    python3 child.py --ready SRC_DIR          import gsde, print "ready"

The job names the source tree to import gsde from, whether to trace, and
a list of argument vectors for `gsde.cli.main`.  The result records each
call's exit code (or exception) and wall time, the process's peak
resident memory, and, when traced, the per-layer metrics.  A fixed probe
runs before the first call and after the last; its time measures the
host's speed during the repetition.
"""

import json
import resource
import sys
import time

import numpy as np


def probe() -> float:
    """Time a fixed mix of the work gsde does: Python-level float
    formatting, numpy ops on 500 lanes, and numpy ops on 80000 grid
    points.  It uses no gsde code, so only the host's speed moves it."""
    small = np.linspace(0.5, 1.5, 500)
    large = np.linspace(0.5, 1.5, 80000)
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(35000):
        acc += float(format(k * 0.001, ".17g"))
    for _ in range(7000):
        small = np.where(small > 1.0, small * 0.999, small * 1.001)
    for _ in range(250):
        large = np.sqrt(large * large + 1e-3) * 0.999
    return time.perf_counter() - t0


def _ready(src: str) -> None:
    sys.path.insert(0, src)
    import gsde.cli  # noqa: F401
    import gsde.config  # noqa: F401

    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _run(job_path: str, result_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import gsde
    import gsde.cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(gsde)

    calls = []
    probe_s = [probe()]
    for argv in job["calls"]:
        t0 = time.perf_counter()
        try:
            code, error = gsde.cli.main(argv), None
        except Exception as exc:  # reported as a failed call, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        calls.append({"argv": argv, "code": code, "error": error,
                      "wall_s": time.perf_counter() - t0})
    probe_s.append(probe())

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "calls": calls,
        "peak_rss_mb": peak_kb / 1024.0,
        "probe_s": probe_s,
        "layers": tracer.metrics() if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "--ready":
        _ready(sys.argv[2])
    else:
        _run(sys.argv[1], sys.argv[2])
