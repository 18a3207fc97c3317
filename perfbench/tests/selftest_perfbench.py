"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/tests/selftest_perfbench.py

The file name keeps it out of the repository's own test run; pass it to
pytest explicitly.  Everything runs at the tiny size.
"""

import dataclasses
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def _rep(tmp_path, workload, seed, traced=False):
    pins = PINS[workload.name]["tiny"] if seed == PINNED_SEED else None
    return run.run_rep(workload, "tiny", seed, traced, tmp_path / "rep", pins)


def _recheck(workload, tmp_path, seed):
    pins = PINS[workload.name]["tiny"] if seed == PINNED_SEED else None
    return run.check_outputs(workload.calls("tiny"), tmp_path / "rep" / "out", pins)[0]


def test_one_corrupted_byte_fails_the_pinned_digest(tmp_path):
    workload = WORKLOADS["exponent_family"]
    assert _rep(tmp_path, workload, PINNED_SEED).failures == {}
    path = tmp_path / "rep" / "out" / "exponent" / "exponent.csv"
    data = bytearray(path.read_bytes())
    k = data.index(b"\n", data.index(b"constant:0.25")) - 2  # a digit of the horizon
    data[k] = ord("1") if data[k] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    failures = _recheck(workload, tmp_path, PINNED_SEED)
    assert set(failures) == set(workload.calls("tiny")[0].ops)


def test_one_corrupted_byte_fails_an_invariant(tmp_path):
    workload = WORKLOADS["simulate_paths"]
    seed = 7
    assert _rep(tmp_path, workload, seed).failures == {}
    path = tmp_path / "rep" / "out" / "simulate" / "path_001.csv"
    lines = path.read_bytes().split(b"\n")
    fields = lines[10].split(b",")
    fields[2] = b"2" + fields[2][1:]  # v = 0.x... becomes 2.x..., above the band
    lines[10] = b",".join(fields)
    path.write_bytes(b"\n".join(lines))
    failures = _recheck(workload, tmp_path, seed)
    assert list(failures) == ["path_001"]
    assert "band" in failures["path_001"]


def test_count_self_check_fails_loudly(tmp_path):
    workload = dataclasses.replace(
        WORKLOADS["certify_templates"],
        expected_counts=lambda size: {"lyapunov.checks": 1},
    )
    rep = _rep(tmp_path, workload, PINNED_SEED, traced=True)
    assert rep.layers["lyapunov.checks"] == 44
    assert len(rep.failures) == rep.attempted
    assert all("lyapunov.checks" in r for r in rep.failures.values())


def _fake_package(monkeypatch):
    """A stand-in for gsde whose expr layer lost compile_fn."""
    pkg = types.ModuleType("fakegsde")
    expr = types.ModuleType("fakegsde.expr")
    cli = types.ModuleType("fakegsde.cli")

    def differentiate(e, var):
        return e

    expr.differentiate = differentiate
    expr.__all__ = ["differentiate", "compile_fn"]  # compile_fn is gone
    cli.differentiate = differentiate

    def main(argv=None):
        cli.differentiate(types.SimpleNamespace(), "x")
        return 0

    cli.main = main
    cli.__all__ = ["main"]
    for mod in (pkg, expr, cli):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, cli


def test_missing_wrapped_name_drops_its_metrics(monkeypatch):
    pkg, cli = _fake_package(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install(pkg)
    assert cli.main() == 0
    metrics = tracer.metrics()
    assert metrics["expr.differentiate_s"] > 0
    assert metrics["expr.derivative_nodes"] == 1
    assert metrics["cli.self_s"] >= 0
    for name in ("expr.compile_s", "expr.kernel_calls", "lyapunov.checks",
                 "scenario.philox_draws"):
        assert name not in metrics


def test_refuses_to_run_without_a_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "digests.json").write_bytes((BENCH / "digests.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify_templates",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_unexpected_exit_code_fails_the_whole_repetition(tmp_path):
    base = WORKLOADS["certify_templates"]

    def calls(size):
        out = base.calls(size)
        out[0].config += "bogus.key = 1\n"  # a config error: exit code 2
        return out

    rep = _rep(tmp_path, dataclasses.replace(base, calls=calls), PINNED_SEED)
    assert not rep.clean
    assert len(rep.failures) == rep.attempted
    assert all("exit code 2" in r for r in rep.failures.values())
