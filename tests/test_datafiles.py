import json
import math

import numpy as np
import pytest

from helpers import read_csv
from walklab.datafiles import format_value, write_csv, write_metadata


def test_float_cells_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(2)
    values = [float(v) for v in rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, 200)]
    values += [0.0, 1.0 / 3.0, math.pi, 2.0 / math.pi, 5e-324, 1.7e308]
    path = tmp_path / "t.csv"
    write_csv(path, ["x"], [(v,) for v in values])
    _, rows = read_csv(path)
    assert [r[0] for r in rows] == values


def test_header_and_width_checks(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [(1.0,)])


def test_cells_may_not_contain_commas():
    with pytest.raises(ValueError):
        format_value("x,y")
    assert format_value("plain") == "plain"
    assert format_value(3) == "3"


def test_identical_inputs_give_identical_bytes(tmp_path):
    rows = [(k, math.sin(k)) for k in range(50)]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, ["k", "v"], rows)
    write_csv(p2, ["k", "v"], rows)
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
