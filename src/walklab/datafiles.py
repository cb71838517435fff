"""Deterministic data files: CSV tables and JSON run metadata.

Floats are written with 17 significant digits so that parsing the file back
recovers the exact double, and equal inputs always produce byte-identical
output.
"""

import json

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


def write_csv(path, header, rows):
    """Write a comma-separated table with a header row.

    Parameters
    ----------
    path : str or Path
        Output file.
    header : sequence of str
        Column names.
    rows : iterable of sequences
        Cell values, converted by :func:`format_value`.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValueError("row width does not match the header")
            fh.write(",".join(format_value(v) for v in row) + "\n")


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
