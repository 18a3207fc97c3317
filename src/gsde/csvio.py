"""The one cell format of every CSV gsde writes: floats with 17
significant digits, so reruns are byte-identical and a cell reads back as
the same double."""

from __future__ import annotations

import csv

import numpy as np

__all__ = ["fmt", "float_cells", "write_csv", "write_float_columns"]

# the float cell; `_FLOAT % v` equals format(v, ".17g") for every double,
# nan, +-inf and -0.0 included
_FLOAT = "%.17g"

# rows per template call in write_float_columns: bounds the argument tuple
# and the text of one call
_BLOCK_ROWS = 4096


def fmt(v) -> str:
    """float -> `%.17g`, None -> "", bool -> true/false, else str(v).

    float is tested first: a path file is nothing but float cells."""
    if isinstance(v, float):
        return _FLOAT % v
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def write_csv(path, header, rows) -> None:
    """Write the header, then each row with every cell through fmt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)


def float_cells(column) -> np.ndarray:
    """The `%.17g` cells of a float column, as an object array of str:
    formatted once, they can be written into many files (see
    write_float_columns)."""
    values = np.asarray(column, dtype=float).tolist()
    return np.array([_FLOAT % v for v in values], dtype=object)


def _column(column) -> tuple[str, np.ndarray]:
    """(row template cell, values) of one column of write_float_columns.

    Cells from float_cells are written as they are.  A float column with
    fewer distinct bit patterns than half its rows formats each pattern
    once and gathers (bits, not values, so -0.0 and 0.0 keep their own
    cells); any other takes `%.17g` in the row template."""
    column = np.asarray(column)
    if column.dtype == object:
        return "%s", column
    column = np.ascontiguousarray(column, dtype=float)
    bits = column.view(np.uint64)
    ordered = np.sort(bits)
    edges = np.r_[True, ordered[1:] != ordered[:-1]]
    if 2 * np.count_nonzero(edges) < bits.size:
        distinct = ordered[edges]
        inverse = np.searchsorted(distinct, bits)
        return "%s", float_cells(distinct.view(float))[inverse]
    return _FLOAT, column


def write_float_columns(path, header, columns) -> None:
    """Write the header, then equal-length columns as rows: float arrays,
    or cells from float_cells.

    The bytes equal write_csv's for the same floats (a float cell never
    needs quoting), but each block of rows is one `%` call on a repeated
    row template instead of one fmt call per cell, and a column that
    repeats its values formats each value once (see _column)."""
    cells, values = zip(*map(_column, columns))
    n_rows = len(values[0])
    if any(len(v) != n_rows for v in values):
        raise ValueError("columns must have equal length")
    k = len(values)
    line = ",".join(cells) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            row_major = [None] * ((stop - start) * k)
            for j, v in enumerate(values):
                row_major[j::k] = v[start:stop].tolist()
            fh.write((line * (stop - start)) % tuple(row_major))
