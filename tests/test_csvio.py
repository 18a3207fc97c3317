"""The shared CSV cell format and writer."""

import math
import re
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import gsde
from gsde.csvio import fmt, write_csv


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_finite_float_round_trips(x):
    assert float(fmt(x)) == x
    assert fmt(np.float64(x)) == fmt(x)


def test_exact_cells():
    assert fmt(math.nan) == "nan"
    assert fmt(math.inf) == "inf"
    assert fmt(-math.inf) == "-inf"
    assert fmt(-0.0) == "-0"
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(np.True_) == "true"
    assert fmt(np.False_) == "false"
    assert fmt(True) == "true"
    assert fmt(None) == ""
    assert fmt(40) == "40"
    assert fmt("a;b") == "a;b"


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c"), [(0.5, None, "x,y"), (2, False, "")])
    assert path.read_bytes() == b'a,b,c\r\n0.5,,"x,y"\r\n2,false,\r\n'


def test_format_lives_in_one_module():
    """Only csvio builds a csv.writer or spells the float format, as a
    format spec or inside an f-string."""
    src = Path(gsde.__file__).resolve().parent
    offenders = [
        p.name
        for p in sorted(src.glob("*.py"))
        if p.name != "csvio.py"
        and re.search(r'csv\.writer\(|["\']\.17g["\']|:\.17g\}', p.read_text())
    ]
    assert offenders == []
