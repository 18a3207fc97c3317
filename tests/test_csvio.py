"""The shared CSV cell format and writer."""

import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gsde
from gsde import csvio
from gsde.csvio import float_cells, fmt, write_csv, write_float_columns

# doubles from raw bit patterns reach every exponent, subnormals and nan
# payloads included, next to hypothesis' own float edge cases
DOUBLES = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
)

SPECIALS = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e17]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_finite_float_round_trips(x):
    assert float(fmt(x)) == x
    assert fmt(np.float64(x)) == fmt(x)


@given(DOUBLES)
def test_float_cell_is_17_significant_digits(x):
    assert fmt(x) == format(x, ".17g")


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


def _same_bytes_as_cell_writer(columns, cells_first=False):
    """write_float_columns gives the bytes of write_csv with fmt cells,
    also with the first column handed over as float_cells."""
    header = tuple(f"c{j}" for j in range(len(columns)))
    given_columns = list(columns)
    if cells_first:
        given_columns[0] = float_cells(columns[0])
    with tempfile.TemporaryDirectory() as d:
        a, b = Path(d) / "a.csv", Path(d) / "b.csv"
        write_float_columns(a, header, given_columns)
        write_csv(b, header, zip(*(c.tolist() for c in columns)))
        return a.read_bytes() == b.read_bytes()


# a small pool: a column drawn from it repeats values, so it takes the
# distinct-value path of write_float_columns (-0.0 next to 0.0, nan of both
# signs)
POOL = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                        0.25, 1.0, 0.1])


@st.composite
def float_columns(draw):
    k, n = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    return [
        np.array(draw(st.lists(draw(st.sampled_from([DOUBLES, POOL])),
                               min_size=n, max_size=n)), dtype=float)
        for _ in range(k)
    ]


@given(float_columns(), st.booleans())
def test_float_columns_match_cell_writer(columns, cells_first):
    assert _same_bytes_as_cell_writer(columns, cells_first)


BLOCK = csvio._BLOCK_ROWS


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_float_columns_across_block_edges(n):
    rng = np.random.default_rng(n)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
               for _ in range(6)]
    columns[5][: len(SPECIALS)] = SPECIALS[:n]
    # a rate-like column of few distinct values, gathered across blocks
    columns[4] = rng.choice([0.25, 1.0, 0.0, -0.0, math.nan], n)
    assert _same_bytes_as_cell_writer(columns)
    assert _same_bytes_as_cell_writer(columns, cells_first=True)


def test_format_lives_in_one_module():
    """Only csvio builds a csv.writer or spells the float format: any
    `.17g` (format spec, f-string or % template) elsewhere fails."""
    src = Path(gsde.__file__).resolve().parent
    offenders = [
        p.name
        for p in sorted(src.glob("*.py"))
        if p.name != "csvio.py"
        and re.search(r"csv\.writer\(|\.17g", p.read_text())
    ]
    assert offenders == []
