"""Fixtures and strategies shared by the test modules."""

import pytest
from hypothesis import strategies as st

from gsde import lyapunov
from gsde.expr import Binary, Const, Unary, Var


@pytest.fixture
def evaluations(monkeypatch) -> list:
    """Each expression lyapunov evaluates from here on, in call order."""
    calls = []
    real = lyapunov.evaluate

    def counting(e, x, t):
        calls.append(e)
        return real(e, x, t)

    monkeypatch.setattr(lyapunov, "evaluate", counting)
    return calls


@st.composite
def any_exprs(draw, depth=0):
    """Random trees over every operator, domain-restricted ones included
    (div, log, sqrt, fractional and negative powers)."""
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "t", "const"]))
        if leaf == "const":
            return Const(draw(st.floats(-3.0, 3.0, allow_nan=False)))
        return Var(leaf, 0)
    op = draw(st.sampled_from(
        ["neg", "abs", "sign", "exp", "log", "sin", "cos", "sqrt",
         "add", "sub", "mul", "div", "pow"]
    ))
    if op == "pow":
        c = draw(st.one_of(
            st.integers(-3, 4).map(float),
            st.sampled_from([0.5, 1.5, -0.5]),
            st.floats(-3.0, 3.0, allow_nan=False),
        ))
        return Binary("pow", draw(any_exprs(depth=depth + 1)), Const(c), 0)
    if op in ("add", "sub", "mul", "div"):
        return Binary(
            op, draw(any_exprs(depth=depth + 1)), draw(any_exprs(depth=depth + 1)), 0
        )
    return Unary(op, draw(any_exprs(depth=depth + 1)), 0)
