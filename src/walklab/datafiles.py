"""Deterministic data files: CSV tables and JSON run metadata.

Floats are written with 17 significant digits so that parsing the file back
recovers the exact double, and equal inputs always produce byte-identical
output.
"""

import itertools
import json
from operator import itemgetter

import numpy as np

__all__ = ["format_value", "write_csv", "write_metadata"]


def format_value(value):
    """Render one CSV cell: floats at full precision, the rest via str."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    text = str(value)
    if "," in text or "\n" in text:
        raise ValueError(f"cell value {text!r} would corrupt the CSV")
    return text


def _column_format(column):
    """The ``%`` format that writes every cell of a column as
    :func:`format_value` would: ``%.17g`` when each cell is a float,
    ``%d`` when each is an int, a bool or a numpy integer, and otherwise
    ``%s``, over the cells passed through :func:`format_value`."""
    types = set(map(type, column))
    if types <= {float, np.float64}:
        return "%.17g"
    if all(t in (int, bool) or issubclass(t, np.integer) for t in types):
        return "%d"
    return "%s"


def write_csv(path, header, rows):
    """Write a comma-separated table with a header row.

    Each column's format is picked once, by ``_column_format``, and the
    whole table is formatted by one ``%``.  A cell that would corrupt the
    table raises before the file is opened.

    Parameters
    ----------
    path : str or Path
        Output file.
    header : sequence of str
        Column names.
    rows : iterable of sequences
        Cell values, written as :func:`format_value` renders them.
    """
    rows = list(rows)
    width = len(header)
    if set(map(len, rows)) - {width}:
        raise ValueError("row width does not match the header")
    formats = [_column_format(map(itemgetter(i), rows)) for i in range(width)]
    cells = list(itertools.chain.from_iterable(rows))
    for i, fmt in enumerate(formats):
        if fmt == "%s":
            cells[i::width] = map(format_value, cells[i::width])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((",".join(formats) + "\n") * len(rows) % tuple(cells))


def write_metadata(path, name, params, seed, started, duration_s, outputs, **extra):
    """Write the JSON sidecar of one run; NaN or inf raises before opening."""
    record = {
        "name": name,
        "params": params,
        "seed": seed,
        "started": started,
        "duration_s": duration_s,
        "outputs": list(outputs),
    }
    record.update(extra)
    text = json.dumps(record, indent=2, sort_keys=False, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return record
