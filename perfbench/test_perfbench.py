"""Tests of the benchmark itself: output checks, failure counting, tracing.

    python3 -m pytest perfbench
"""

import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run  # pins BLAS threads and locates the sources
from check import Reference, RunChecker
from tracer import Tracer

sys.path.insert(0, str(run.SRC))

from walklab import classical, coined, ctqw, experiments, linalg  # noqa: E402


def _sweep(monkeypatch, tmp_path, runs):
    monkeypatch.setitem(run.WORKLOADS, "probe", runs)
    return run.Sweep(experiments, "probe", 0, tmp_path)


def _run(tmp_path, name, params, seed=None):
    spec = experiments.ExperimentSpec(name, params, seed, str(tmp_path))
    status = experiments.run(spec)
    stem = tmp_path / (name if seed is None else f"{name}-s{seed}")
    return status, stem.with_suffix(".csv"), stem.with_suffix(".json")


# -- failure counting on inputs that fail at the seed commit -----------------

def test_raising_runs_are_counted_with_their_exception(monkeypatch, tmp_path):
    sweep = _sweep(monkeypatch, tmp_path, [
        ("line-walk.m1100", "line-walk", {"m": "1100"}),
        ("complete-graph-search.n3k2", "complete-graph-search",
         {"n": "3", "k": "2"}),
    ])
    sweep.run_pass()
    sweep.run_pass()
    assert sweep.attempted == 4
    reasons = [f["reason"] for f in sweep.failures]
    assert reasons == ["raised OverflowError", "raised ZeroDivisionError"] * 2


def test_bad_request_counts_as_failed(monkeypatch, tmp_path):
    sweep = _sweep(monkeypatch, tmp_path,
                   [("grover.bad", "grover", {"n": "many"})])
    sweep.run_pass()
    assert [f["reason"] for f in sweep.failures] == ["exit status 2"]


def test_calibration_runs_around_every_run_and_is_left_out(monkeypatch,
                                                          tmp_path):
    sweep = _sweep(monkeypatch, tmp_path, [("grover", "grover", {}),
                                           ("line-walk", "line-walk", {})])
    calls = []

    def calibrate():
        calls.append(time.perf_counter())
        time.sleep(0.1)
        return 0.1

    elapsed, times, calibration = sweep.run_pass(calibrate)
    assert len(calls) == 3
    assert calibration == pytest.approx(0.3)
    assert sum(times) <= elapsed < sum(times) + 0.05


def test_calibration_kernel_is_timed():
    calibrate = run.Calibration()
    assert 0 < calibrate() < 1


# -- the output check against stored references ------------------------------

@pytest.fixture(scope="module")
def defaults_reference():
    return Reference("defaults")


def test_default_outputs_match_reference(tmp_path, defaults_reference):
    checker = RunChecker(defaults_reference)
    for name in ("line-walk", "entropy-series", "cost-table"):
        status, csv, meta = _run(tmp_path, name, {})
        assert checker.check(name, None, status, csv, meta) is None


def test_nan_only_where_reference_has_it(tmp_path, defaults_reference):
    checker = RunChecker(defaults_reference)
    status, csv, meta = _run(tmp_path, "entropy-series", {})
    lines = csv.read_text().splitlines()
    assert lines[1].split(",")[3] == "nan"  # classical_asymptote at m=0
    cells = lines[2].split(",")
    cells[3] = "nan"
    lines[2] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    reason = checker.check("entropy-series", None, status, csv, meta)
    assert reason.startswith("CSV row 2")


@pytest.mark.parametrize("corrupt, expected", [
    (lambda lines: lines[:-1], "rows, expected"),
    (lambda lines: ["x" + lines[0]] + lines[1:], "CSV header"),
    (lambda lines: lines[:5] + [lines[5] + ",1"] + lines[6:], "cells, expected"),
    (lambda lines: lines[:101] + [lines[101].replace(",", ",1", 1)]
     + lines[102:], "differs from reference"),
    (lambda lines: [], "CSV is empty"),
])
def test_corrupted_csv_fails(tmp_path, defaults_reference, corrupt, expected):
    checker = RunChecker(defaults_reference)
    status, csv, meta = _run(tmp_path, "line-walk", {})
    lines = corrupt(csv.read_text().splitlines())
    csv.write_text("".join(line + "\n" for line in lines))
    assert expected in checker.check("line-walk", None, status, csv, meta)


def test_small_cell_drift_within_tolerance_passes(tmp_path, defaults_reference):
    checker = RunChecker(defaults_reference)
    status, csv, meta = _run(tmp_path, "line-walk", {})
    lines = csv.read_text().splitlines()
    cells = lines[50].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-12))
    lines[50] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    assert checker.check("line-walk", None, status, csv, meta) is None


def test_missing_csv_and_loose_sidecar_fail(tmp_path, defaults_reference):
    checker = RunChecker(defaults_reference)
    status, csv, meta = _run(tmp_path, "line-walk", {})
    meta.write_text('{"spread": NaN}\n')
    assert "not strict JSON" in checker.check("line-walk", None, status, csv,
                                              meta)
    csv.unlink()
    assert "CSV unreadable" in checker.check("line-walk", None, status, csv,
                                             meta)


def test_unreferenced_seed_must_repeat_exactly(tmp_path):
    reference = Reference("defaults")
    checker = RunChecker(reference)
    seed = 987654
    assert reference.lookup("subset-find", seed)[0] is None
    status, csv, meta = _run(tmp_path, "subset-find", {}, seed)
    assert checker.check("subset-find", seed, status, csv, meta) is None
    assert checker.check("subset-find", seed, status, csv, meta) is None
    lines = csv.read_text().splitlines()
    lines[1] = lines[1][:-1] + ("1" if lines[1][-1] != "1" else "2")
    csv.write_text("\n".join(lines) + "\n")
    assert "previous pass" in checker.check("subset-find", seed, status, csv,
                                            meta)


def test_referenced_seed_is_checked_cell_by_cell(tmp_path):
    checker = RunChecker(Reference("defaults"))
    seed = run.run_seed(0, 11)  # subset-find is the twelfth default run
    status, csv, meta = _run(tmp_path, "subset-find", {}, seed)
    assert checker.check("subset-find", seed, status, csv, meta) is None
    other = run.run_seed(1, 11)
    assert checker.check("subset-find", other, status, csv, meta) is not None


# -- tracing from outside the package ----------------------------------------

def test_tracer_rebinds_and_restores_every_name():
    originals = {
        (coined, "tvd"): coined.tvd,
        (classical, "tvd"): classical.tvd,
        (coined, "unitary_eigensystem"): coined.unitary_eigensystem,
        (coined, "group_indices_by_phase"): coined.group_indices_by_phase,
        (linalg, "eig_hermitian"): linalg.eig_hermitian,
        (experiments, "run"): experiments.run,
        (coined.CoinedWalkOperator, "step"): coined.CoinedWalkOperator.step,
        (coined.DensityState, "check_positive"):
            coined.DensityState.check_positive,
    }
    with Tracer():
        for (owner, attr), fn in originals.items():
            assert getattr(owner, attr) is not fn
            assert getattr(owner, attr).__wrapped__ is fn
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn


def test_calls_inside_one_module_open_no_span():
    with Tracer() as tracer:
        tree = ctqw.hard_nand_instance(8, np.random.default_rng(1))
    assert isinstance(tree, tuple)
    _, calls = tracer.layers()
    assert calls == {"ctqw": 1}


def test_probes_see_calls_inside_their_module():
    op = coined.line_operator(20)
    start = coined.line_start(op)
    with Tracer() as tracer:
        coined.walk_run(op, start, 20)
    assert tracer.probes["coined.CoinedWalkOperator.step"].calls == 20
    assert tracer.layers()[1] == {"coined": 1}


def test_self_times_account_for_the_run_and_counts_repeat(tmp_path):
    seen = []
    for _ in range(2):
        with Tracer() as tracer:
            status, _, _ = _run(tmp_path, "mixing", {})
        assert status == 0
        self_s, calls = tracer.layers()
        (total,) = [end - start for name, _, start, end, parent
                    in tracer.spans if parent == -1]
        assert math.isclose(sum(self_s.values()), total, rel_tol=1e-9)
        scanned = tracer.children_of("classical.mixing_time",
                                     "distributions.tvd")
        seen.append((dict(calls), dict(tracer.counts), scanned))
    assert seen[0] == seen[1]
    assert seen[0][2] == 100_001


# -- the command line ---------------------------------------------------------

def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "defaults",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
