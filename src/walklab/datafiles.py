"""Deterministic data files: CSV tables and JSON run metadata.

Floats are written with 17 significant digits so that parsing the file back
recovers the exact double, and equal inputs always produce byte-identical
output.
"""

import json

import numpy as np

__all__ = ["format_value", "write_csv", "write_metadata"]

# rows formatted by one ``%``; a block of three float columns holds about
# 0.2 MB of cells and text at its peak
_BLOCK_ROWS = 1024


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


def write_csv(path, header, columns):
    """Write a comma-separated table with a header row.

    Each column's format is picked once, by ``_column_format``, and the
    table is formatted by one ``%`` per block of ``_BLOCK_ROWS`` rows, so
    the text held at once stays bounded however long the table.  A table
    whose columns do not match the header or each other, or a cell that
    would corrupt it, raises before the file is opened.

    Parameters
    ----------
    path : str or Path
        Output file.
    header : sequence of str
        Column names.
    columns : sequence of sized sequences
        One column per header name, all of one length: arrays, lists or
        ranges of cell values, written as :func:`format_value` renders them.
    """
    width = len(header)
    length, *others = set(map(len, columns)) or {0}
    if len(columns) != width or others:
        raise ValueError("the columns do not match the header or each other")
    formats = list(map(_column_format, columns))
    # cells that are not plain numbers are rendered, and checked, up front
    columns = [list(map(format_value, column)) if fmt == "%s" else column
               for column, fmt in zip(columns, formats)]
    row = ",".join(formats) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, length, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, length - start)
            cells = [None] * (width * rows)
            for i, column in enumerate(columns):
                part = column[start:start + rows]
                # Python numbers format as numpy scalars do, only faster
                cells[i::width] = (part.tolist() if isinstance(part, np.ndarray)
                                   else part)
            fh.write(row * rows % tuple(cells))


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
