"""The one cell format of every CSV gsde writes: floats with 17
significant digits, so reruns are byte-identical and a cell reads back as
the same double."""

from __future__ import annotations

import csv

import numpy as np

__all__ = ["fmt", "write_csv", "write_float_columns"]

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


def write_float_columns(path, header, columns) -> None:
    """Write the header, then equal-length float columns as rows.

    The bytes equal write_csv's for the same cells (a float cell never
    needs quoting), but each block of rows is one `%` call on a repeated
    row template instead of one fmt call per cell."""
    table = np.column_stack(columns)
    line = ",".join([_FLOAT] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, table.shape[0], _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
