"""Fixtures shared by the test modules."""

import pytest

from gsde import lyapunov


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
