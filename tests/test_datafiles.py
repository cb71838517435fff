import json
import math

import numpy as np
import pytest

from helpers import read_csv
from walklab import datafiles
from walklab.datafiles import format_value, write_csv, write_metadata


def per_cell_csv(header, columns):
    """The table as format_value renders it cell by cell: the writer's
    reference."""
    lines = [",".join(header)]
    lines += [",".join(map(format_value, row)) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def test_float_cells_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(2)
    values = [float(v) for v in rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, 200)]
    values += [0.0, 1.0 / 3.0, math.pi, 2.0 / math.pi, 5e-324, 1.7e308]
    path = tmp_path / "t.csv"
    write_csv(path, ["x"], [values])
    _, rows = read_csv(path)
    assert [r[0] for r in rows] == values


def test_header_and_width_checks(tmp_path):
    # too few columns, too many, and one of another length: each raises
    # before the file is opened
    for columns in ([[1.0]], [[1.0], [2.0], [3.0]], [[1.0, 2.0], range(3)]):
        with pytest.raises(ValueError, match="do not match"):
            write_csv(tmp_path / "bad.csv", ["a", "b"], columns)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("column, fmt", [
    ([0.5, np.float64(-0.0), math.nan, -math.inf, 5e-324], "%.17g"),
    ([3, True, False, np.int64(-7), np.uint64(2 ** 64 - 1), np.int8(5),
      10 ** 30], "%d"),
    ([np.True_, np.False_], "%s"),
    ([np.float32(0.1), np.float32(1e-45)], "%s"),
    (["plain", "x y", 1.5], "%s"),
    ([1, 2.5, np.float64(3.0)], "%s"),
], ids=["float", "int", "numpy-bool", "float32", "string", "int-and-float"])
def test_one_format_per_column_writes_each_cell_as_before(tmp_path, column,
                                                          fmt):
    assert datafiles._column_format(column) == fmt
    steps = range(len(column))
    columns = [steps, column, [math.sqrt(k) for k in steps]]
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "v", "r"], columns)
    assert path.read_text() == per_cell_csv(["k", "v", "r"], columns)


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2 * 1024 + 7])
def test_tables_across_blocks_write_each_cell_as_before(tmp_path, rows):
    assert datafiles._BLOCK_ROWS == 1024
    steps = range(rows)
    columns = [steps, np.sin(np.arange(rows)) * 1e-3,
               [f"s{k}" if k % 3 else 1.5 for k in steps]]
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "v", "s"], columns)
    assert path.read_text() == per_cell_csv(["k", "v", "s"], columns)


def test_zero_rows_write_the_header_alone(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[], np.empty(0)])
    assert path.read_text() == "a,b\n"


@pytest.mark.parametrize("cell", ["x,y", "x\ny"], ids=["comma", "newline"])
def test_a_cell_that_would_corrupt_the_table_writes_nothing(tmp_path, cell):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="would corrupt the CSV"):
        write_csv(path, ["a", "b"], [[1.0, 2.0], ["ok", cell]])
    assert not path.exists()


def test_cells_may_not_contain_commas():
    with pytest.raises(ValueError):
        format_value("x,y")
    assert format_value("plain") == "plain"
    assert format_value(3) == "3"


def test_identical_inputs_give_identical_bytes(tmp_path):
    columns = [range(50), np.sin(np.arange(50))]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, ["k", "v"], columns)
    write_csv(p2, ["k", "v"], columns)
    assert p1.read_bytes() == p2.read_bytes()


def test_metadata_schema(tmp_path):
    path = tmp_path / "run.json"
    write_metadata(
        path,
        name="demo",
        params={"m": 10},
        seed=42,
        started="2026-01-01T00:00:00Z",
        duration_s=0.5,
        outputs=["demo.csv"],
        reproduces="spreading of the walk",
    )
    record = json.loads(path.read_text())
    assert set(record) >= {"name", "params", "seed", "started", "duration_s", "outputs"}
    assert record["outputs"] == ["demo.csv"]
    assert record["params"]["m"] == 10
