import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walklab
from walklab import experiments, trace
from walklab.datafiles import read_csv
from walklab.experiments import ExperimentSpec, run

ALL_NAMES = {
    "line-walk", "hadamard-line", "entropy-series", "decoherence-sweep",
    "absorbing-boundary", "complete-graph-search", "star-search", "grover",
    "fixed-point", "szegedy-spectrum", "marked-gap", "subset-find",
    "cost-table", "ctqw-cycle", "ctqw-hypercube", "glued-trees",
    "analog-search", "nand", "mcmc-partition", "annealing", "mixing",
    "hitting",
}


def run_ok(tmp_path, name, params=None, seed=None):
    spec = ExperimentSpec(name, params or {}, seed, str(tmp_path))
    assert run(spec) == 0
    tag = name if seed is None else f"{name}-s{seed}"
    meta = json.loads((tmp_path / f"{tag}.json").read_text())
    header, rows = read_csv(tmp_path / f"{tag}.csv")
    return meta, header, rows


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(experiments.catalog()) == ALL_NAMES

    def test_entries_are_well_formed(self):
        for exp in experiments.catalog().values():
            assert exp.description
            for key, meta in exp.schema.items():
                assert meta.kind in ("int", "float", "str")
                assert meta.help

    def test_listing_mentions_every_name(self, capsys):
        experiments.list_experiments()
        out = capsys.readouterr().out
        for name in ALL_NAMES:
            assert name in out
        assert "22 experiments" in out


class TestExitCodes:
    def test_unknown_experiment(self, tmp_path):
        assert run(ExperimentSpec("warp", {}, None, str(tmp_path))) == 2

    def test_unknown_parameter(self, tmp_path):
        spec = ExperimentSpec("grover", {"fuel": "3"}, None, str(tmp_path))
        assert run(spec) == 2

    def test_malformed_parameter_value(self, tmp_path):
        for name, params in [("grover", {"n": "many"}),
                             ("grover", {"n": float("inf")}),
                             ("analog-search", {"t_max": "nan"}),
                             ("analog-search", {"t_max": "inf"})]:
            spec = ExperimentSpec(name, params, None, str(tmp_path))
            assert run(spec) == 2, params

    def test_invalid_parameter_value(self, tmp_path):
        for name, params, seed in [
                ("mixing", {"n": "6"}, None),
                ("marked-gap", {"graph": "m_partite"}, None),
                ("mixing", {"eps": "0"}, None),
                ("analog-search", {"marked": "0"}, None),
                ("annealing", {"runs": "0"}, 1),
                ("mcmc-partition", {"samples": "0"}, 1),
                ("subset-find", {"q": "0"}, 1),
                ("subset-find", {"k": "0"}, 1),
                ("hitting", {"horizon": "-1"}, None),
                ("nand", {"depth": "-1"}, 1),
                ("nand", {"depth": "2000"}, 1),
                ("line-walk", {"m": "0"}, None),
                ("line-walk", {"m": "-1"}, None),
                ("annealing", {"inner": "-1"}, 1),
                ("mixing", {"t_max": "-1"}, None),
                ("mixing", {"t_max": "0"}, None),
                ("hitting", {"horizon": "0"}, None),
                # budgets too small for the quantity asked for
                ("hitting", {"dim": "5", "horizon": "5"}, None),
                ("mixing", {"t_max": "10"}, None),
                # over the Szegedy size limit (256 vertices)
                ("szegedy-spectrum", {"graph": "hypercube", "n": "8"}, None),
                ("marked-gap", {"graph": "hypercube", "n": "8"}, None),
                # requests whose table would have no rows
                ("decoherence-sweep", {"points": "0"}, None),
                ("entropy-series", {"m_max": "-1"}, None),
                ("fixed-point", {"levels": "-1"}, None),
                ("marked-gap", {"k_max": "0"}, None),
                ("cost-table", {"k_max": "0"}, None),
                ("ctqw-cycle", {"d_max": "-1"}, None)]:
            spec = ExperimentSpec(name, params, seed, str(tmp_path))
            assert run(spec) == 2, (name, params)
        assert not list(tmp_path.glob("*.csv"))

    def test_oversized_szegedy_graph_refused_before_it_is_built(
            self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("graph built")
        monkeypatch.setattr(experiments.graphs, "build_graph", refuse)
        for name, params in [("szegedy-spectrum",
                              {"graph": "complete", "n": "100000"}),
                             ("szegedy-spectrum",
                              {"graph": "hypercube", "n": "30"}),
                             ("marked-gap", {"graph": "line", "n": "129"})]:
            spec = ExperimentSpec(name, params, None, str(tmp_path))
            assert run(spec) == 2, (name, params)
        assert not list(tmp_path.iterdir())

    def test_missing_seed(self, tmp_path):
        assert run(ExperimentSpec("nand", {}, None, str(tmp_path))) == 2

    def test_tolerance_failure(self, tmp_path):
        spec = ExperimentSpec("ctqw-cycle",
                              {"n": "300", "t": "10", "d_max": "5",
                               "tolerance": "1e-30"},
                              None, str(tmp_path))
        assert run(spec) == 3

    def test_non_finite_result_leaves_no_sidecar(self, tmp_path, monkeypatch):
        exp = experiments.catalog()["line-walk"]
        monkeypatch.setitem(experiments._REGISTRY, "line-walk", exp._replace(
            func=lambda params, seed, csv_path: {"x": float("nan")}))
        assert run(ExperimentSpec("line-walk", {}, None, str(tmp_path))) == 3
        assert not list(tmp_path.glob("*.json"))

    def test_gate_fails_closed_on_nan(self):
        trace.check("residual", 1.0, 1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(experiments.ToleranceError):
                trace.check("residual", bad, 1.0)

    def test_other_errors_are_not_reported_as_failed_checks(
            self, tmp_path, monkeypatch):
        def overflow(params, seed, csv_path):
            raise RecursionError("not a numerical check")
        exp = experiments.catalog()["line-walk"]
        monkeypatch.setitem(experiments._REGISTRY, "line-walk",
                            exp._replace(func=overflow))
        with pytest.raises(RecursionError):
            run(ExperimentSpec("line-walk", {}, None, str(tmp_path)))


class TestMetadataAndDeterminism:
    def test_metadata_schema(self, tmp_path):
        meta, _, _ = run_ok(tmp_path, "line-walk", {"m": 20})
        for key in ("name", "params", "seed", "started", "duration_s",
                    "outputs"):
            assert key in meta
        assert meta["name"] == "line-walk"
        assert meta["params"]["m"] == 20
        assert meta["seed"] is None
        assert meta["outputs"] and meta["outputs"][0].endswith(".csv")
        assert "numpy" in meta["versions"]

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for d in (a, b):
            spec = ExperimentSpec("nand", {"depth": 4, "instances": 6}, 3,
                                  str(d))
            assert run(spec) == 0
        assert (a / "nand-s3.csv").read_bytes() == (b / "nand-s3.csv").read_bytes()

    def test_different_seed_different_file(self, tmp_path):
        run_ok(tmp_path, "annealing", {"bits": 5, "runs": 4}, seed=1)
        run_ok(tmp_path, "annealing", {"bits": 5, "runs": 4}, seed=2)
        assert (tmp_path / "annealing-s1.csv").exists()
        assert (tmp_path / "annealing-s2.csv").exists()


class TestWalkExperiments:
    def test_line_walk_distribution(self, tmp_path):
        _, header, rows = run_ok(tmp_path, "line-walk", {"m": 30})
        assert header == ["position", "probability", "gaussian_approx"]
        assert abs(sum(r[1] for r in rows) - 1.0) < 1e-12

    def test_hadamard_line_shape_and_mass(self, tmp_path):
        _, header, rows = run_ok(tmp_path, "hadamard-line", {"m": 12})
        assert header == ["position", "probability"]
        assert abs(sum(r[1] for r in rows) - 1.0) < 1e-10

    def test_entropy_series_ordering(self, tmp_path):
        _, header, rows = run_ok(tmp_path, "entropy-series", {"m_max": 24})
        last = rows[-1]
        classical, quantum, bound = last[1], last[2], last[4]
        assert classical < quantum <= bound + 1e-12

    def test_decoherence_sweep_endpoints(self, tmp_path):
        _, _, rows = run_ok(tmp_path, "decoherence-sweep",
                            {"m": 12, "points": 3})
        assert rows[0][2] < 1e-9
        assert rows[-1][1] > rows[0][1]

    def test_absorbing_boundary_monotone(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "absorbing-boundary", {"m_max": 500})
        cum = [r[2] for r in rows]
        assert all(b >= a - 1e-15 for a, b in zip(cum, cum[1:]))
        assert 0.60 < meta["final_cumulative"] < 2.0 / 3.1415926 + 1e-3
        assert meta["classical_limit"] == 1.0

    def test_mixing_reports_both_times(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "mixing", {"n": 5, "t_max": 250})
        assert meta["classical_mixing_time"] > 0
        assert meta["quantum_mixing_time"] > 0
        assert rows[-1][1] < 0.05

    def test_hitting_monitored_mass_bounded(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "hitting", {"dim": 3, "horizon": 60})
        assert sum(r[3] for r in rows) <= 1.0 + 1e-9
        assert meta["quantum_concurrent"] >= 1


class TestSearchExperiments:
    def test_complete_graph_search_columns(self, tmp_path):
        meta, header, rows = run_ok(tmp_path, "complete-graph-search",
                                    {"n": 30, "k": 1})
        assert header[0] == "step" and header[-1] == "success"
        assert max(r[-1] for r in rows) > 0.9
        assert meta["opt_steps"] >= 1

    def test_star_search_triangle(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "star-search", {"n": 100})
        assert meta["triangle_probability"] > 0.9
        assert abs(rows[0][-1] - 2.0 / 100) < 1e-12

    def test_grover_trajectory(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "grover", {"n": 256, "k": 1})
        assert meta["success"] > 0.999
        assert abs(rows[-1][3] - meta["success"]) < 1e-12
        assert meta["plane_leakage"] < 1e-10

    def test_fixed_point_cubing(self, tmp_path):
        _, _, rows = run_ok(tmp_path, "fixed-point",
                            {"levels": 3, "n": 8, "k": 1})
        for row in rows:
            assert abs(row[1] - row[2]) < 1e-9

    def test_subset_find_ledger(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "subset-find",
                               {"n": 8, "q": 4, "k": 2, "r": 4}, seed=11)
        t1 = meta["auto_tau1"]
        for row in rows:
            assert 0.0 <= row[2] <= 1.0 + 1e-12
            assert row[3] == 4 + 2 * t1 * row[1]

    def test_cost_table_formula_matches_grid(self, tmp_path):
        # the grid may undercut the interior balance point (it does for
        # the clique variant at k = 2, where searching the whole edge
        # list is cheaper) but must agree everywhere else
        _, _, rows = run_ok(tmp_path, "cost-table", {"k_max": 4})
        for variant, k, formula, grid, _ in rows:
            assert grid <= formula + 5e-4
            if not (variant == "clique" and k == 2):
                assert abs(formula - grid) < 5e-4


class TestSpectralExperiments:
    def test_szegedy_spectrum_pairing(self, tmp_path):
        meta, header, rows = run_ok(tmp_path, "szegedy-spectrum",
                                    {"graph": "cycle", "n": 6})
        assert header == ["lambda_D", "phase_W"]
        assert meta["pairing_error"] < 1e-8
        assert meta["residual_count"] == 36 - 2 * 4
        assert 0.0 <= meta["invariance_residual"] <= 1e-10
        top = max(rows, key=lambda r: r[0])
        assert abs(top[0] - 1.0) < 1e-12 and abs(top[1]) < 1e-8

    def test_marked_gap_bounds_hold(self, tmp_path):
        meta, header, rows = run_ok(tmp_path, "marked-gap",
                                    {"graph": "complete", "n": 8, "k_max": 3})
        assert header == ["marked_count", "block_norm", "norm_bound", "phi0",
                          "phase_bound"]
        assert 0.0 <= meta["invariance_residual"] <= 1e-10
        for row in rows:
            assert row[1] <= row[2] + 1e-10
            assert row[3] >= row[4] - 1e-10

    def test_broken_invariance_exits_3_without_output(self, tmp_path,
                                                     monkeypatch, capsys):
        lift = experiments.szegedy._lift
        monkeypatch.setattr(experiments.szegedy, "_lift",
                            lambda p: (lift(p)[0] + 1e-6, lift(p)[1]))
        for name in ("szegedy-spectrum", "marked-gap"):
            assert run(ExperimentSpec(name, {}, None, str(tmp_path))) == 3
            assert "invariant-span residual off by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestContinuousExperiments:
    def test_ctqw_cycle_within_budget(self, tmp_path):
        meta, _, _ = run_ok(tmp_path, "ctqw-cycle",
                            {"n": 300, "t": 10.0, "d_max": 30})
        assert meta["worst_difference"] < 5e-3

    def test_ctqw_hypercube_agreement(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "ctqw-hypercube",
                               {"dim": 4, "points": 51})
        assert meta["worst_difference"] < 1e-10
        assert max(r[1] for r in rows) > 0.999

    def test_glued_trees_cycle_kind(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "glued-trees",
                               {"kind": "cycle", "n": 3, "points": 101},
                               seed=5)
        assert meta["equivalence_error"] < 1e-8
        assert meta["peak_exit_probability"] > 0.25
        assert abs(rows[0][1] - 1.0) < 1e-12

    def test_analog_search_certainty(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "analog-search",
                               {"n": 32, "points": 101})
        assert meta["worst_difference"] < 1e-9
        assert max(r[1] for r in rows) > 0.999

    def test_nand_consistency(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "nand",
                               {"depth": 4, "instances": 8}, seed=2)
        for row in rows:
            assert row[1] == row[2]
        assert meta["leaf_count"] == 16


class TestSamplingExperiments:
    def test_mcmc_partition_accuracy(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "mcmc-partition",
                               {"bits": 4, "levels": 5, "samples": 150},
                               seed=1)
        assert meta["relative_error"] < 0.5
        for row in rows:
            assert 0.0 < row[3] <= 1.0 + 1e-12

    def test_annealing_never_beats_truth(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "annealing",
                               {"bits": 5, "runs": 6}, seed=4)
        assert meta["best_energy"] >= meta["true_minimum"] - 1e-12
        assert 0.0 <= meta["hit_fraction"] <= 1.0


GRAPH_EXPERIMENTS = ("analog-search", "complete-graph-search",
                     "ctqw-hypercube", "glued-trees", "hitting", "mixing",
                     "szegedy-spectrum", "marked-gap")


def test_graph_experiments_never_read_edge_tuples(tmp_path, monkeypatch):
    """Library code works on the edge arrays; the tuple views are for tests."""
    def refuse(self):
        raise AssertionError("library code read a tuple view of the edges")

    monkeypatch.setattr(experiments.graphs.Graph, "edges", property(refuse))
    for attr in ("edges", "index"):
        monkeypatch.setattr(experiments.scattering.EdgeBasis, attr,
                            property(refuse))
    for name in GRAPH_EXPERIMENTS:
        seed = 1 if experiments.catalog()[name].needs_seed else None
        assert run(ExperimentSpec(name, {}, seed, str(tmp_path))) == 0, name


def test_subset_find_builds_at_most_two_walks(tmp_path, monkeypatch):
    """One walk serves the auto schedule and its window probes, one more
    the tau2 sweep."""
    built = []
    init = experiments.subset.SubsetWalk.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(experiments.subset.SubsetWalk, "__init__",
                        counting_init)
    assert run(ExperimentSpec("subset-find", {}, 1, str(tmp_path))) == 0
    assert 1 <= len(built) <= 2


def python_child(args, cwd):
    # The child runs in cwd, so a relative PYTHONPATH would not find walklab.
    src = str(Path(walklab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def module_cli(args, cwd):
    return python_child(["-m", "walklab.experiments", *args], cwd)


class TestCommandLine:
    def test_list_prints_catalog(self, tmp_path):
        proc = module_cli(["list"], tmp_path)
        assert proc.returncode == 0
        for name in ALL_NAMES:
            assert name in proc.stdout

    def test_run_with_flags(self, tmp_path):
        proc = module_cli(["run", "line-walk", "--param", "m=16",
                           "--out", str(tmp_path)], tmp_path)
        assert proc.returncode == 0
        meta = json.loads((tmp_path / "line-walk.json").read_text())
        assert meta["params"]["m"] == 16

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 9\nseed = 5  # ignored by line-walk\n")
        proc = module_cli(["run", "line-walk", "--config", str(cfg),
                           "--param", "m=7", "--out", str(tmp_path)], tmp_path)
        assert proc.returncode == 0
        meta = json.loads((tmp_path / "line-walk-s5.json").read_text())
        assert meta["params"]["m"] == 7
        assert meta["seed"] == 5

    def test_unknown_name_exit_code(self, tmp_path):
        proc = module_cli(["run", "warp", "--out", str(tmp_path)], tmp_path)
        assert proc.returncode == 2
        assert "unknown experiment" in proc.stderr

    def test_malformed_param_flag(self, tmp_path):
        proc = module_cli(["run", "grover", "--param", "n", "--out",
                           str(tmp_path)], tmp_path)
        assert proc.returncode == 2

    def test_missing_output_directory(self, tmp_path):
        proc = module_cli(["run", "line-walk", "--out",
                           str(tmp_path / "nope")], tmp_path)
        assert proc.returncode == 2

    @pytest.mark.parametrize("demo", ["03_decoherence.py",
                                      "06_subset_search.py"])
    def test_demo_runs(self, tmp_path, demo):
        demo = Path(__file__).resolve().parents[1] / "demos" / demo
        proc = python_child([str(demo)], tmp_path)
        assert proc.returncode == 0, proc.stderr
