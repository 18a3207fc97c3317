"""The package's import surface, and the README's library example."""

import ast
import importlib
import re
from pathlib import Path

import gsde

SRC = Path(gsde.__file__).resolve().parent
README = SRC.parents[1] / "README.md"


def test_package_reexports_nothing():
    """Each name has one import path, its module: the package __init__
    imports nothing from a submodule."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    offenders = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "gsde")
        or isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == "gsde" for a in node.names)
    ]
    assert offenders == []


def test_module_all_names_exist():
    """Every name a module's __all__ lists is defined there; a missing one
    would be skipped silently by anything that wraps __all__."""
    missing = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        mod = importlib.import_module(f"gsde.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    """The README's library block imports from the modules and prints what
    its comments say."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    (code,) = [b for b in blocks if "from gsde" in b]
    exec(compile(code, str(README), "exec"), {})
    granted, bound, sup_mean = capsys.readouterr().out.split()
    assert (granted, float(bound)) == ("True", -0.5)
    assert round(float(sup_mean), 2) == -1.11


def test_no_global_statement():
    """No function in the package rebinds a module or an enclosing
    function's name: state that lives across calls, such as a sweep's
    operator sample, lives in an object the caller makes and passes, and
    state that lives through one call, such as the search's candidates,
    in that call's own variables."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert offenders == []


def test_one_reuse_rule():
    """What a run of checks reuses is held in one place: `slots` is named
    only inside lyapunov.SampleHolder, whose once method is the one reuse
    rule, and config keeps no memo of its own: no function there is
    decorated, and each mapping a function writes to is one it made."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        holder = {id(n) for c in ast.walk(tree)
                  if isinstance(c, ast.ClassDef) and c.name == "SampleHolder"
                  for n in ast.walk(c)}
        offenders += [
            f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if id(n) not in holder and "slots" in (
                getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "arg", None))
        ]
    for fn in ast.walk(ast.parse((SRC / "config.py").read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        made = {t.id for n in ast.walk(fn) if isinstance(n, (ast.Assign, ast.AnnAssign))
                for t in getattr(n, "targets", [getattr(n, "target", None)])
                if isinstance(t, ast.Name)}
        written = [n.value for n in ast.walk(fn)
                   if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)]
        written += [n.func.value for n in ast.walk(fn)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("pop", "popitem", "setdefault", "update", "clear")]
        offenders += [f"config.py:{n.lineno}" for n in fn.decorator_list]
        offenders += [f"config.py:{n.lineno}" for n in written
                      if not (isinstance(n, ast.Name) and n.id in made)]
    assert offenders == []
