"""The one cell format of every CSV gsde writes: floats with 17
significant digits, so reruns are byte-identical and a cell reads back as
the same double."""

from __future__ import annotations

import csv

import numpy as np

__all__ = ["fmt", "write_csv"]


def fmt(v) -> str:
    """float -> `.17g`, None -> "", bool -> true/false, else str(v).

    float is tested first: a path file is nothing but float cells."""
    if isinstance(v, float):
        return format(v, ".17g")
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
