"""Fail-closed checks of one experiment run's output files.

A run passes only when its CSV parses, has the reference header and row
count, and every cell agrees with the stored reference within a pinned
tolerance, and when its JSON sidecar is strict JSON.  References are gzipped
CSVs under ``reference/<workload>/``: ``<label>.csv.gz`` for deterministic
runs and ``<label>-s<seed>.csv.gz`` for stochastic runs at the seeds that were
recorded.  A stochastic run at any other seed is checked for header, row count
and finite cells, and must repeat byte for byte from pass to pass.
"""

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Pinned cell tolerance.  Runs on one machine reproduce the reference bytes
# exactly; the slack covers reordered floating-point sums when BLAS picks
# other kernels or thread counts on another CPU.
RTOL = 1e-9
ATOL = 1e-12


class Reference:
    """Stored reference CSVs of one workload, keyed by run label."""

    def __init__(self, workload):
        self.texts = {}
        self.shapes = {}
        for path in sorted((REFERENCE_DIR / workload).glob("*.csv.gz")):
            key = path.name[: -len(".csv.gz")]
            text = gzip.decompress(path.read_bytes()).decode()
            self.texts[key] = text
            head, sep, tail = key.rpartition("-s")
            label = head if sep and tail.isdigit() else key
            lines = text.splitlines()
            self.shapes.setdefault(label, (lines[0], len(lines) - 1))

    def lookup(self, label, seed):
        """(reference text or None, (header, row count) or None)."""
        key = label if seed is None else f"{label}-s{seed}"
        return self.texts.get(key), self.shapes.get(label)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _cell_mismatch(got, want):
    if got == want:
        return False
    g, w = _number(got), _number(want)
    if g is None or w is None:
        return True
    if math.isnan(w):
        return not math.isnan(g)
    if not math.isfinite(g) or not math.isfinite(w):
        return True
    return abs(g - w) > ATOL + RTOL * abs(w)


def check_csv(text, reference, shape):
    """Reason the CSV text fails against its reference, or None."""
    lines = text.splitlines()
    if not lines:
        return "CSV is empty"
    want_rows = reference.splitlines() if reference is not None else None
    if want_rows is not None:
        shape = (want_rows[0], len(want_rows) - 1)
    if shape is None:
        return "no reference shape for this run"
    header, count = shape
    if lines[0] != header:
        return f"CSV header {lines[0]!r} differs from {header!r}"
    if len(lines) - 1 != count:
        return f"CSV has {len(lines) - 1} rows, expected {count}"
    width = header.count(",") + 1
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != width:
            return f"CSV row {i} has {len(cells)} cells, expected {width}"
        if want_rows is None:
            for cell in cells:
                value = _number(cell)
                if value is not None and not math.isfinite(value):
                    return f"CSV row {i} holds non-finite {cell}"
            continue
        for got, want in zip(cells, want_rows[i].split(",")):
            if _cell_mismatch(got, want):
                return f"CSV row {i}: {got} differs from reference {want}"
    return None


def check_sidecar(path):
    """Reason the JSON sidecar fails, or None."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        return f"sidecar unreadable: {type(err).__name__}"
    try:
        record = json.loads(text, parse_constant=_reject_constant)
    except ValueError as err:
        return f"sidecar is not strict JSON: {err}"
    if not isinstance(record, dict):
        return "sidecar is not a JSON object"
    return None


class RunChecker:
    """Checks every run of one workload, remembering stochastic outputs so
    that a seed without a reference still has to repeat exactly."""

    def __init__(self, reference):
        self.reference = reference
        self.seen = {}

    def check(self, label, seed, status, csv_path, json_path):
        """Reason the run failed, or None.  ``status`` is the exit code
        returned by ``experiments.run``, or the name of what it raised."""
        if isinstance(status, str):
            return f"raised {status}"
        if status != 0:
            return f"exit status {status}"
        try:
            text = Path(csv_path).read_text()
        except (OSError, UnicodeDecodeError) as err:
            return f"CSV unreadable: {type(err).__name__}"
        reference, shape = self.reference.lookup(label, seed)
        reason = check_csv(text, reference, shape)
        if reason is None and reference is None:
            first = self.seen.setdefault((label, seed), text)
            if text != first:
                reason = "CSV differs from the previous pass at the same seed"
        return reason or check_sidecar(json_path)
