"""Outside-in tracing of gsde's layers, installed from the benchmark's side.

Each layer is a module under src/gsde.  `install` wraps the public
functions of every layer (the names in its `__all__`) wherever another gsde
module, or the package namespace, holds a reference to them, so only calls
that cross a module boundary open a span.  Callables a layer hands out
(compiled expression kernels, per-step variance closures, Philox
generators) are wrapped too, because the stepping loops spend their time
inside them.

Spans are aggregated in memory per name (calls and inclusive time) and
per layer (busy time, counting only the outermost open span of the
layer, and self time).  Metrics are derived once, at exit.  A name that a
later version of gsde no longer has is skipped when installing; every
metric derived from it is then left out instead of failing.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time

LAYERS = ("cli", "config", "expr", "gcalc", "scenario", "integrator",
          "estimator", "lyapunov")


def _node_count(e) -> int:
    """Nodes of an expression tree, walked through its dataclass fields."""
    count = 0
    stack = [e]
    while stack:
        node = stack.pop()
        count += 1
        for attr in ("child", "left", "right"):
            sub = getattr(node, attr, None)
            if sub is not None:
                stack.append(sub)
    return count


class _GeneratorProxy:
    """Times and counts normal draws made through a Philox generator."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self.standard_normal = tracer.span(
            "scenario.philox", "scenario", gen.standard_normal, _count_normals
        )

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _count_normals(tracer, out, args, kwargs):
    tracer.add("scenario.philox_draws", getattr(out, "size", 1))
    return out


class Tracer:
    """In-memory span and count store for one process."""

    def __init__(self):
        self.installed: set[str] = set()
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.layer_busy = {layer: 0.0 for layer in LAYERS}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.counts: dict[str, float] = {}
        self._depth = {layer: 0 for layer in LAYERS}
        self._stack: list[list[float]] = []

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, layer: str, fn, post=None):
        """Wrap fn so each call records a span; post(tracer, out, args,
        kwargs) may count work and returns the value handed to the caller."""
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        self.calls.setdefault(name, 0)
        self.total.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            depth[layer] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.layer_self[layer] += dur - frame[1]
                if depth[layer] == 0:
                    self.layer_busy[layer] += dur
            if post is not None:
                out = post(self, out, args, kwargs)
            return out

        return wrapper

    def inside(self, layer: str) -> bool:
        return self._depth[layer] > 0

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every layer of an imported gsde
        package at its module boundaries."""
        modules = {
            layer: sys.modules.get(f"{package.__name__}.{layer}")
            for layer in LAYERS
        }
        for layer, mod in modules.items():
            if mod is None:
                continue
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn):
                    continue
                qual = f"{layer}.{name}"
                wrapped = self.span(qual, layer, fn, _POST.get(qual))
                targets = [m for other, m in modules.items()
                           if m is not None and other != layer]
                targets.append(package)
                if qual == "cli.main":
                    targets.append(mod)  # the benchmark's own entry call
                for target in targets:
                    for attr, val in list(vars(target).items()):
                        if val is fn:
                            setattr(target, attr, wrapped)
                self.installed.add(qual)

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; those whose source names are missing are left
        out."""
        out = {}
        for name, (sources, value) in _METRICS.items():
            if all(src in self.installed for src in sources):
                out[name] = float(value(self))
        return out


# ---------------------------------------------------------------------------
# per-name hooks: count the work a call did and wrap what it hands out

def _count_build(tracer, out, args, kwargs):
    tracer.add("config.builds", 1)
    return out


def _count_nodes(tracer, out, args, kwargs):
    tracer.add("expr.derivative_nodes", _node_count(out))
    return out


def _wrap_kernel(tracer, out, args, kwargs):
    return tracer.span("expr.kernel", "expr", out)


def _wrap_variance(tracer, out, args, kwargs):
    timed = tracer.span("scenario.variance", "scenario", out)

    def policy(i, t, x):
        if tracer.inside("estimator"):
            tracer.add("estimator.steps", 1)
            tracer.add("estimator.path_steps", getattr(x, "size", 1))
        return timed(i, t, x)

    return policy


def _wrap_generator(tracer, out, args, kwargs):
    return _GeneratorProxy(out, tracer)


def _count_increments(tracer, out, args, kwargs):
    tracer.add("scenario.philox_draws", out.size)
    return out


def _count_steps(tracer, out, args, kwargs):
    tracer.add("integrator.steps", out.bundle.dW.size)
    return out


def _count_csv_bytes(tracer, out, args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    tracer.add("integrator.csv_bytes", os.path.getsize(path))
    return out


def _count_paths(tracer, out, args, kwargs):
    for s in out.scenarios:
        tracer.add("estimator.paths", s.n_paths)
        tracer.add("estimator.unflagged", s.n_paths - s.n_flagged)
    return out


def _count_check(tracer, out, args, kwargs):
    grid = kwargs.get("grid", args[4] if len(args) > 4 else None)
    tracer.add("lyapunov.checks", 1)
    if grid is not None:
        tracer.add("lyapunov.grid_points", grid.xs.size * grid.ts.size)
    return out


_POST = {
    "config.build_bounds": _count_build,
    "config.build_sde": _count_build,
    "config.build_lyapunov": _count_build,
    "config.build_certificate": _count_build,
    "config.build_scenarios": _count_build,
    "config.build_grid": _count_build,
    "config.build_numerics": _count_build,
    "expr.differentiate": _count_nodes,
    "expr.compile_fn": _wrap_kernel,
    "scenario.variance_stream": _wrap_variance,
    "scenario.stream_generator": _wrap_generator,
    "scenario.standard_increments": _count_increments,
    "integrator.integrate": _count_steps,
    "integrator.write_path_csv": _count_csv_bytes,
    "estimator.estimate_exponent": _count_paths,
    "lyapunov.check_certificate": _count_check,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count(name):
    return lambda tr: tr.counts.get(name, 0)


def _total(name):
    return lambda tr: tr.total.get(name, 0.0)


def _calls(name):
    return lambda tr: tr.calls.get(name, 0)


def _busy(layer):
    return lambda tr: tr.layer_busy[layer]


def _self(layer):
    return lambda tr: tr.layer_self[layer]


# metric name -> (wrapped names it needs, value)
_METRICS = {
    "config.busy_s": (("config.build_sde",), _busy("config")),
    "config.builds": (("config.build_sde",), _count("config.builds")),
    "expr.differentiate_s": (("expr.differentiate",), _total("expr.differentiate")),
    "expr.derivative_nodes": (("expr.differentiate",), _count("expr.derivative_nodes")),
    "expr.evaluate_s": (("expr.evaluate",), _total("expr.evaluate")),
    "expr.evaluate_calls": (("expr.evaluate",), _calls("expr.evaluate")),
    "expr.compile_s": (("expr.compile_fn",), _total("expr.compile_fn")),
    "expr.kernel_eval_s": (("expr.compile_fn",), _total("expr.kernel")),
    "expr.kernel_calls": (("expr.compile_fn",), _calls("expr.kernel")),
    "gcalc.busy_s": (("gcalc.g_upper",), _busy("gcalc")),
    "scenario.philox_s": (
        ("scenario.stream_generator", "scenario.standard_increments"),
        lambda tr: tr.total.get("scenario.philox", 0.0)
        + tr.total["scenario.standard_increments"],
    ),
    "scenario.philox_draws": (
        ("scenario.stream_generator", "scenario.standard_increments"),
        _count("scenario.philox_draws"),
    ),
    "scenario.variance_s": (("scenario.variance_stream",), _total("scenario.variance")),
    "scenario.variance_calls": (("scenario.variance_stream",), _calls("scenario.variance")),
    "integrator.integrate_s": (("integrator.integrate",), _total("integrator.integrate")),
    "integrator.steps": (("integrator.integrate",), _count("integrator.steps")),
    "integrator.write_s": (("integrator.write_path_csv",), _total("integrator.write_path_csv")),
    "integrator.csv_bytes": (("integrator.write_path_csv",), _count("integrator.csv_bytes")),
    "estimator.busy_s": (("estimator.estimate_exponent",), _busy("estimator")),
    "estimator.self_s": (("estimator.estimate_exponent",), _self("estimator")),
    "estimator.steps": (
        ("estimator.estimate_exponent", "scenario.variance_stream"),
        _count("estimator.steps"),
    ),
    "estimator.lanes_per_step": (
        ("estimator.estimate_exponent", "scenario.variance_stream"),
        lambda tr: _ratio(tr.counts.get("estimator.path_steps", 0),
                          tr.counts.get("estimator.steps", 0)),
    ),
    "estimator.useful_frac": (
        ("estimator.estimate_exponent",),
        lambda tr: _ratio(tr.counts.get("estimator.unflagged", 0),
                          tr.counts.get("estimator.paths", 0)),
    ),
    "lyapunov.busy_s": (("lyapunov.check_certificate",), _busy("lyapunov")),
    "lyapunov.self_s": (("lyapunov.check_certificate",), _self("lyapunov")),
    "lyapunov.checks": (("lyapunov.check_certificate",), _count("lyapunov.checks")),
    "lyapunov.grid_points": (("lyapunov.check_certificate",), _count("lyapunov.grid_points")),
    "lyapunov.write_s": (
        ("lyapunov.write_certificate_csv",), _total("lyapunov.write_certificate_csv")
    ),
    "cli.self_s": (("cli.main",), _self("cli")),
}

# units of the metrics above
UNITS = {name: ("s" if name.endswith("_s") else
                "bytes" if name.endswith("_bytes") else
                "ratio" if name.endswith(("_frac", "_per_step")) else "count")
         for name in _METRICS}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced repetitions (a metric missing from
    any repetition is left out)."""
    if not samples:
        return {}
    names = set(samples[0]).intersection(*samples[1:])
    return {n: statistics.median(s[n] for s in samples) for n in sorted(names)}
