import contextlib
import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walklab
from helpers import read_csv
from walklab import experiments, trace
from walklab.experiments import ExperimentSpec, run
from walklab.special import catalan

ALL_NAMES = {
    "line-walk", "hadamard-line", "entropy-series", "decoherence-sweep",
    "absorbing-boundary", "complete-graph-search", "star-search", "grover",
    "fixed-point", "szegedy-spectrum", "marked-gap", "subset-find",
    "cost-table", "ctqw-cycle", "ctqw-hypercube", "glued-trees",
    "analog-search", "nand", "mcmc-partition", "annealing", "mixing",
    "hitting",
}


def moved_middle_cell(probs):
    """A line distribution with the probability of its middle site, the
    origin, moved two sites up, which keeps its parity."""
    probs = np.array(probs)
    middle = len(probs) // 2
    probs[middle + 2] += probs[middle]
    probs[middle] = 0.0
    return probs


def quarter_for_third(phase):
    """The uniform-state phase with pi/4 where fixed-point search asks
    for pi/3."""
    def off(angle, state):
        if abs(angle) == math.pi / 3:
            angle = math.copysign(math.pi / 4, angle)
        return phase(angle, state)
    return off


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

    def test_every_experiment_returns_one_sized_column_per_header_name(self):
        for name, exp in experiments.catalog().items():
            params = {key: meta.default for key, meta in exp.schema.items()}
            header, columns, _ = exp.func(params, 1)
            assert len(columns) == len(header), name
            for column in columns:
                assert iter(column) is not column, name
            assert len(set(map(len, columns))) == 1, name

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
                ("analog-search", {"marked": "64"}, None),
                ("analog-search", {"n": "1", "marked": "1"}, None),
                ("analog-search", {"n": str(2 ** 20 + 1)}, None),
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
                # a start below the floor would report the random starts
                ("annealing", {"t0": "-1"}, 1),
                ("annealing", {"tmin": "3"}, 1),
                ("annealing", {"mu": "1"}, 1),
                ("annealing", {"mu": "0"}, 1),
                # a schedule np.linspace could not allocate
                ("mcmc-partition", {"levels": str(10 ** 12)}, 1),
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
                ("ctqw-cycle", {"d_max": "-1"}, None),
                ("ctqw-cycle", {"t": "0", "d_max": "600"}, None),
                # the wavefront wraps at a negative time as at a positive one
                ("ctqw-cycle", {"n": "100", "t": "-1000", "d_max": "5"}, None),
                # a negative time is refused, not swapped for the default
                ("ctqw-hypercube", {"t_max": "-5"}, None),
                ("glued-trees", {"t_max": "-5"}, 1),
                ("analog-search", {"t_max": "-5"}, None),
                # sizes past their caps: out of memory, an overflow or
                # a run without end
                ("hadamard-line", {"m": str(10 ** 12)}, None),
                ("absorbing-boundary", {"m_max": str(10 ** 12)}, None),
                ("entropy-series", {"m_max": "1024"}, None),
                ("complete-graph-search", {"n": str(10 ** 5)}, None),
                ("star-search", {"n": str(10 ** 18)}, None),
                # an optimum of 2.2 million steps, and of 2.1 billion
                ("star-search", {"r0": repr(1 - 1e-10)}, None),
                ("star-search", {"r0": repr(math.nextafter(1.0, 0.0))}, None),
                ("cost-table", {"k_max": str(10 ** 9)}, None)]:
            spec = ExperimentSpec(name, params, seed, str(tmp_path))
            assert run(spec) == 2, (name, params)
        assert not list(tmp_path.glob("*.csv"))

    def test_oversized_szegedy_graph_refused_before_it_is_built(
            self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("graph built")
        for family in experiments._VERTEX_COUNTS:
            monkeypatch.setattr(experiments.graphs, family, refuse)
        for name, params in [("szegedy-spectrum",
                              {"graph": "complete", "n": "100000"}),
                             ("szegedy-spectrum",
                              {"graph": "hypercube", "n": "30"}),
                             ("marked-gap", {"graph": "line", "n": "129"})]:
            spec = ExperimentSpec(name, params, None, str(tmp_path))
            assert run(spec) == 2, (name, params)
        assert not list(tmp_path.iterdir())

    def test_vertex_counts_match_the_graph_builders(self):
        for family, count in experiments._VERTEX_COUNTS.items():
            for n in (3, 4):
                g = getattr(experiments.graphs, family)(n)
                assert g.family == family, (family, n)
                assert g.n == count(n), (family, n)

    def test_oversized_decoherence_sweep_refused_before_it_is_built(
            self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("walk built")
        monkeypatch.setattr(experiments.coined, "line_operator", refuse)
        monkeypatch.setattr(experiments.coined.DensityState, "from_pure",
                            refuse)
        # the smallest m whose (2(2m+5))^2 complex rho is over the bound
        m = 0
        while (2 * (2 * m + 5)) ** 2 * 16 <= experiments.DECOHERENCE_MAX_BYTES:
            m += 1
        for steps in (m, 10 ** 9, -4):
            spec = ExperimentSpec("decoherence-sweep", {"m": str(steps)},
                                  None, str(tmp_path))
            assert run(spec) == 2, steps
        assert not list(tmp_path.iterdir())

    def test_deep_fixed_point_refused_before_it_runs(self, tmp_path,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("search run")
        monkeypatch.setattr(experiments.grover, "fixed_point_levels", refuse)
        monkeypatch.setattr(experiments.grover, "fixed_point_run", refuse)
        # the patch reaches the search an accepted request runs
        with pytest.raises(AssertionError, match="search run"):
            run(ExperimentSpec("fixed-point", {"levels": "1"}, None,
                               str(tmp_path)))
        levels = 0
        while 3 ** levels <= experiments.FIXED_POINT_MAX_APPLICATIONS:
            levels += 1
        for deep in (levels, 10 ** 30):
            spec = ExperimentSpec("fixed-point", {"levels": str(deep)},
                                  None, str(tmp_path))
            assert run(spec) == 2, deep
        assert not list(tmp_path.iterdir())

    def test_marked_sets_covering_the_list_refused_before_they_are_built(
            self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("marked set built")

        monkeypatch.setattr(experiments.grover, "Oracle", refuse)
        for name in ("grover", "fixed-point"):
            n = experiments.catalog()[name].schema["n"].default
            for k in (n, 2 ** 63):
                spec = ExperimentSpec(name, {"k": str(k)}, None, str(tmp_path))
                assert run(spec) == 2, (name, k)
        assert not list(tmp_path.iterdir())

    def test_long_annealing_schedule_refused_before_any_draw(
            self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("random draw")

        # 3,688,878 levels at mu = 0.999999, and 137,470 from t0 = 1e300
        # down to tmin = 1e-300 at mu = 0.99
        monkeypatch.setattr(experiments.np.random, "default_rng", refuse)
        for params in [{"mu": "0.999999"},
                       {"t0": "1e300", "tmin": "1e-300", "mu": "0.99"}]:
            spec = ExperimentSpec("annealing", params, 1, str(tmp_path))
            assert run(spec) == 2, params
            err = capsys.readouterr().err
            assert err.startswith("error: 20 runs of ")
            assert "step limit" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_annealing_limit_is_the_largest_request_the_caps_accept(
            self, tmp_path, monkeypatch):
        schema = experiments.catalog()["annealing"].schema
        levels, t = 0, schema["t0"].default
        while t >= schema["tmin"].default:
            levels, t = levels + 1, t * schema["mu"].default
        assert levels == 36
        assert (schema["runs"].hi * levels * (schema["inner"].hi + 2)
                == experiments.ANNEALING_MAX_STEPS)
        # both sides of a limit lowered to the default request, which
        # visits levels temperatures in each of its runs
        metropolis = experiments.classical._metropolis
        calls = []

        def counted(*args):
            calls.append(1)
            return metropolis(*args)

        monkeypatch.setattr(experiments.classical, "_metropolis", counted)
        monkeypatch.setattr(experiments, "ANNEALING_MAX_STEPS",
                            schema["runs"].default * levels
                            * (schema["inner"].default + 2))
        # tmin 0.045 sits just below t0 mu^36 = 0.04506, a 37th level
        for params, status, runs in [({}, 0, 20), ({"runs": "21"}, 2, 0),
                                     ({"inner": "61"}, 2, 0),
                                     ({"inner": "0"}, 0, 20),
                                     ({"tmin": "0.0451"}, 0, 20),
                                     ({"tmin": "0.045"}, 2, 0)]:
            calls.clear()
            spec = ExperimentSpec("annealing", dict(params, bits="4"), 1,
                                  str(tmp_path))
            assert run(spec) == status, params
            assert len(calls) == runs * levels, params

    # 1000 runs of 72,000 levels at inner 1 once took 50.9 s; 18,000 levels
    # at inner 4 fit when a level counted as 4 steps, and would take 24 s
    @pytest.mark.parametrize("mu, levels, inner", [
        ("0.9999487665198197", 72000, 1), ("0.9997950775591482", 18000, 4)],
        ids=["inner1", "inner4"])
    def test_annealing_counts_a_level_as_inner_plus_two_steps(
            self, tmp_path, monkeypatch, capsys, mu, levels, inner):
        def refuse(*args):
            raise AssertionError("random draw")

        monkeypatch.setattr(experiments.np.random, "default_rng", refuse)
        params = {"runs": "1000", "inner": str(inner), "mu": mu}
        spec = ExperimentSpec("annealing", params, 1, str(tmp_path))
        assert run(spec) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: 1000 runs of {levels} temperature "
                              f"levels at {inner} steps, each level counted "
                              f"as {inner} + 2, pass the")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_annealing_default_and_cap_requests_still_run(self, tmp_path,
                                                          monkeypatch):
        inner = []

        def stub(model, t0, mu, tmin, inner_steps, rng):
            inner.append(inner_steps)
            return 0

        monkeypatch.setattr(experiments.classical, "simulated_annealing",
                            stub)
        for params, runs in [({}, 20), ({"runs": "1000", "inner": "2000"},
                                        1000)]:
            inner.clear()
            spec = ExperimentSpec("annealing", dict(params, bits="4"), 1,
                                  str(tmp_path))
            assert run(spec) == 0, params
            assert inner == [int(params.get("inner", 60))] * runs
        # both sides of a limit lowered to 20 runs of 36 levels at 4 steps,
        # each level counted as 4 + 2
        monkeypatch.setattr(experiments, "ANNEALING_MAX_STEPS",
                            20 * 36 * (4 + 2))
        for params, status in [({"inner": "0"}, 0), ({"inner": "1"}, 0),
                               ({"inner": "4"}, 0), ({"inner": "5"}, 2),
                               ({"inner": "4", "runs": "21"}, 2),
                               ({"inner": "0", "runs": "60"}, 0),
                               ({"inner": "0", "runs": "61"}, 2)]:
            spec = ExperimentSpec("annealing", dict(params, bits="4"), 1,
                                  str(tmp_path))
            assert run(spec) == status, params

    def test_mcmc_partition_levels_times_samples_refused_before_any_draw(
            self, tmp_path, monkeypatch, capsys):
        schema = experiments.catalog()["mcmc-partition"].schema
        # the levels cap at the default samples fills the limit
        assert (schema["levels"].hi * schema["samples"].default
                == experiments.MCMC_PARTITION_MAX_SAMPLES)

        def refuse(*args):
            raise AssertionError("random draw")

        monkeypatch.setattr(experiments.np.random, "default_rng", refuse)
        # both caps at once, 10^8 moves, once took about 27 s
        for levels, samples in [(1000, 201), (21, 10 ** 4), (201, 1000),
                                (1000, 10 ** 4)]:
            spec = ExperimentSpec("mcmc-partition",
                                  {"levels": str(levels),
                                   "samples": str(samples)},
                                  1, str(tmp_path))
            assert run(spec) == 2, (levels, samples)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {levels} levels of {samples} "
                                  "samples pass the 200000-sample limit")
            assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_mcmc_partition_default_and_limit_requests_still_run(
            self, tmp_path, monkeypatch):
        calls = []

        def stub(model, betas, samples, rng):
            calls.append((len(betas) - 1, samples))
            return experiments.classical.TelescopingResult(
                1.0, [1.0] * (len(betas) - 1), 1.0)

        monkeypatch.setattr(experiments.classical,
                            "telescoping_partition_estimate", stub)
        for params, want in [({}, (8, 200)),
                             ({"bits": "10", "samples": "2000"}, (8, 2000)),
                             ({"levels": "1000"}, (1000, 200)),
                             ({"levels": "20", "samples": "10000"},
                              (20, 10 ** 4)),
                             ({"levels": "200", "samples": "1000"},
                              (200, 1000))]:
            calls.clear()
            spec = ExperimentSpec("mcmc-partition", params, 1, str(tmp_path))
            assert run(spec) == 0, params
            assert calls == [want]

    def test_nand_leaves_refused_before_any_draw(self, tmp_path,
                                                 monkeypatch, capsys):
        schema = experiments.catalog()["nand"].schema
        # the depth cap at the default instances and trials fills the limit
        assert (schema["instances"].default * (schema["trials"].default + 1)
                * 2 ** schema["depth"].hi == experiments.NAND_MAX_LEAVES)

        def refuse(*args):
            raise AssertionError("random draw")

        monkeypatch.setattr(experiments.np.random, "default_rng", refuse)
        # one over the limit in each parameter, then all three caps at once,
        # 10^4 depth-16 trees at 1000 trials, about six hours
        for depth, instances, trials in [(16, 20, 5), (16, 21, 4),
                                         (16, 51, 1), (5, 10 ** 4, 20),
                                         (0, 10 ** 4, 1000),
                                         (16, 10 ** 4, 1000)]:
            spec = ExperimentSpec("nand", {"depth": str(depth),
                                           "instances": str(instances),
                                           "trials": str(trials)},
                                  1, str(tmp_path))
            assert run(spec) == 2, (depth, instances, trials)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {instances} trees of depth "
                                  f"{depth} at {trials} trials")
            assert "6553600-leaf limit" in err
            assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_nand_default_and_limit_requests_still_run(self, tmp_path,
                                                       monkeypatch):
        # stubs that draw a leaf per tree, so no request runs at its size
        calls = []

        def instance(depth, rng):
            calls.append(depth)
            return 0

        monkeypatch.setattr(experiments.ctqw, "hard_nand_instance", instance)
        monkeypatch.setattr(experiments.ctqw, "classical_nand_cost",
                            lambda tree, rng, trials: float(trials))
        for params, depth, instances in [
                ({}, 5, 20), ({"depth": "9"}, 9, 20), ({"depth": "16"}, 16, 20),
                ({"instances": "10000"}, 5, 10 ** 4),
                ({"trials": "1000"}, 5, 20),
                ({"depth": "16", "instances": "50", "trials": "1"}, 16, 50),
                ({"instances": "10000", "trials": "19"}, 5, 10 ** 4),
                ({"depth": "0", "instances": "10000", "trials": "654"},
                 0, 10 ** 4)]:
            calls.clear()
            spec = ExperimentSpec("nand", params, 1, str(tmp_path))
            assert run(spec) == 0, params
            assert calls == [depth] * instances

    def test_cost_table_rows_times_grid_refused_before_the_scan(
            self, tmp_path, monkeypatch, capsys):
        cost_model = experiments.subset.cost_model
        calls = []

        def counted(k, mus, variant):
            calls.append(len(mus))
            return cost_model(k, mus, variant)

        monkeypatch.setattr(experiments.subset, "cost_model", counted)
        schema = experiments.catalog()["cost-table"].schema
        # the 12 rows of the default k_max at the largest grid fill it
        assert (12 * schema["grid"].hi
                == experiments.COST_TABLE_MAX_POINTS)
        # k_max = 100 has 100 + 99 + 98 rows: 40,404 points fit, 40,405 not
        for params in [{"k_max": "100", "grid": "1000000"},
                       {"k_max": "100", "grid": "40405"},
                       {"k_max": "6", "grid": "1000000"}]:
            spec = ExperimentSpec("cost-table", params, None, str(tmp_path))
            assert run(spec) == 2, params
            err = capsys.readouterr().err
            assert err.startswith(f"error: {3 * int(params['k_max']) - 3} "
                                  f"rows of {params['grid']} grid points")
            assert err.count("\n") == 1 and "Traceback" not in err
        assert not calls and not list(tmp_path.iterdir())
        for params, rows in [({}, 12), ({"grid": "20001"}, 12),
                             ({"k_max": "1"}, 1), ({"k_max": "2"}, 3)]:
            calls.clear()
            spec = ExperimentSpec("cost-table", params, None, str(tmp_path))
            assert run(spec) == 0, params
            assert len(calls) == rows, params
        # both sides of a limit lowered to the default request: k_max = 4
        # has 4 + 3 + 2 rows, so 9 x 2668 points fit and 9 x 2669 do not
        monkeypatch.setattr(experiments, "COST_TABLE_MAX_POINTS", 12 * 2001)
        for params, status in [({}, 0), ({"grid": "2002"}, 2),
                               ({"k_max": "6", "grid": "2"}, 0),
                               ({"k_max": "6", "grid": "2001"}, 2),
                               ({"k_max": "4", "grid": "2668"}, 0),
                               ({"k_max": "4", "grid": "2669"}, 2)]:
            spec = ExperimentSpec("cost-table", params, None, str(tmp_path))
            assert run(spec) == status, params

    def test_oversized_glued_trees_table_refused_before_it_is_built(
            self, tmp_path, monkeypatch, capsys):
        evolve_many = experiments.linalg.evolve_many

        def guarded(h, times, psi):
            table = 16 * len(times) * len(psi)
            assert table <= experiments.GLUED_TREES_MAX_BYTES, "table built"
            return evolve_many(h, times, psi)

        monkeypatch.setattr(experiments.linalg, "evolve_many", guarded)
        # n = 1000 with 10^5 points once asked numpy for 2.98 GiB
        spec = ExperimentSpec("glued-trees", {"n": "1000", "points": "100000"},
                              None, str(tmp_path))
        assert run(spec) == 2
        assert "100000 points on 1999 nodes pass" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        # the largest request the limit's comment times is just inside it
        limit = experiments.GLUED_TREES_MAX_BYTES
        assert 16 * 2097 * 2000 <= limit < 16 * 2098 * 2000
        # both sides of a lowered limit: plain n = 4 has 7 nodes, cycle 8
        monkeypatch.setattr(experiments, "GLUED_TREES_MAX_BYTES", 16 * 201 * 7)
        for kind, points, status in [("plain", 201, 0), ("plain", 202, 2),
                                     ("cycle", 175, 0), ("cycle", 176, 2)]:
            spec = ExperimentSpec("glued-trees",
                                  {"kind": kind, "points": str(points)},
                                  None, str(tmp_path))
            assert run(spec) == status, (kind, points)

    def test_declared_ranges_refused_before_the_run(self, tmp_path,
                                                     monkeypatch, capsys):
        def refuse(params, seed):
            raise AssertionError("experiment entered")

        def range_text(key, meta):
            if meta.hi is None:
                return f"{key} >= {meta.lo}"
            if meta.lo is None:
                return f"{key} <= {meta.hi}"
            return f"{meta.lo} <= {key} <= {meta.hi}"

        experiments.list_experiments()
        listing = capsys.readouterr().out.splitlines()
        cases = 0
        for name, exp in experiments.catalog().items():
            monkeypatch.setitem(experiments._REGISTRY, name,
                                exp._replace(func=refuse))
            block = listing[listing.index(name + "  (seed required)"
                                          if exp.needs_seed else name):]
            for key, meta in exp.schema.items():
                outside = [bound + step for bound, step
                           in ((meta.lo, -1), (meta.hi, 1))
                           if bound is not None]
                if not outside:
                    continue
                line = next(x for x in block
                            if x.startswith(f"    --param {key}="))
                assert f"({range_text(key, meta)}):" in line, line
                assert ((meta.lo is None or meta.lo <= meta.default)
                        and (meta.hi is None or meta.default <= meta.hi))
                for value in outside:
                    spec = ExperimentSpec(name, {key: str(value)}, 1,
                                          str(tmp_path))
                    assert run(spec) == 2, (name, key, value)
                    err = capsys.readouterr().err
                    assert f"{key}={value} is outside" in err, err
                    cases += 1
        assert cases >= 84
        assert not list(tmp_path.iterdir())

    def test_missing_seed(self, tmp_path):
        assert run(ExperimentSpec("nand", {}, None, str(tmp_path))) == 2

    def test_tolerance_failure(self, tmp_path):
        spec = ExperimentSpec("ctqw-cycle",
                              {"n": "300", "t": "10", "d_max": "5",
                               "tolerance": "1e-30"},
                              None, str(tmp_path))
        assert run(spec) == 3
        assert not list(tmp_path.iterdir())

    def test_non_finite_result_leaves_no_sidecar(self, tmp_path, monkeypatch,
                                                 capsys):
        exp = experiments.catalog()["line-walk"]
        monkeypatch.setitem(experiments._REGISTRY, "line-walk", exp._replace(
            func=lambda params, seed: (["x"], [[1]], {"x": float("nan")})))
        assert run(ExperimentSpec("line-walk", {}, None, str(tmp_path))) == 3
        assert not list(tmp_path.iterdir())
        assert "summary value x off by nan" in capsys.readouterr().err

    def test_nan_data_cell_exits_3_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        analysis = experiments.coined.hitting_analysis

        def with_nan(*args):
            res = analysis(*args)
            res.first_hit[5] = np.nan
            return res

        monkeypatch.setattr(experiments.coined, "hitting_analysis", with_nan)
        assert run(ExperimentSpec("hitting", {}, None, str(tmp_path))) == 3
        err = capsys.readouterr().err
        assert "non-finite cells in quantum_first_hit off by 1.00e+00" in err
        assert not list(tmp_path.iterdir())

    # entropy-series lets through a NaN asymptote at m = 0 alone: not one at
    # another step, not an inf there, and not a NaN in another column, even
    # one of integers
    @pytest.mark.parametrize("column, row, value", [
        ("classical_asymptote", 1, float("nan")),
        ("classical_asymptote", 0, float("inf")),
        ("quantum_entropy", 0, float("nan")),
        ("m", 3, float("nan")),
    ], ids=["later-step", "inf", "other-column", "integer-column"])
    def test_only_the_listed_nan_cell_passes(self, tmp_path, monkeypatch,
                                             capsys, column, row, value):
        exp = experiments.catalog()["entropy-series"]

        def damaged(params, seed):
            header, columns, summary = exp.func(params, seed)
            columns = [list(cells) for cells in columns]
            columns[header.index(column)][row] = value
            return header, columns, summary

        monkeypatch.setitem(experiments._REGISTRY, "entropy-series",
                            exp._replace(func=damaged))
        spec = ExperimentSpec("entropy-series", {}, None, str(tmp_path))
        assert run(spec) == 3
        assert f"non-finite cells in {column}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_marked_gap_violation_exits_3_with_its_size(
            self, tmp_path, monkeypatch, capsys):
        modify = experiments.szegedy.marked_modify

        def loose(p, marked):
            mc = modify(p, marked)
            return dataclasses.replace(mc, norm=mc.bound + 1e-6)

        monkeypatch.setattr(experiments.szegedy, "marked_modify", loose)
        assert run(ExperimentSpec("marked-gap", {}, None, str(tmp_path))) == 3
        assert "spectral bounds off by 1.00e-06" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_nand_disagreement_exits_3_with_its_count(
            self, tmp_path, monkeypatch, capsys):
        nand_eval = experiments.ctqw.nand_eval

        def flipped(tree):
            res = nand_eval(tree)
            return res._replace(bit=1 - res.bit)

        monkeypatch.setattr(experiments.ctqw, "nand_eval", flipped)
        spec = ExperimentSpec("nand", {"instances": "3"}, 1, str(tmp_path))
        assert run(spec) == 3
        err = capsys.readouterr().err
        assert "disagrees with boolean truth off by 3.00e+00" in err
        assert not list(tmp_path.iterdir())

    def test_glued_trees_reduction_mismatch_exits_3(
            self, tmp_path, monkeypatch, capsys):
        line = experiments.ctqw.WeightedLine

        def perturbed(nodes, weights):
            weights = list(weights)
            weights[len(weights) // 2] *= 1.01
            return line(nodes, weights)

        monkeypatch.setattr(experiments.ctqw, "WeightedLine", perturbed)
        for kind in ("plain", "cycle"):
            spec = ExperimentSpec("glued-trees", {"kind": kind}, 1,
                                  str(tmp_path))
            assert run(spec) == 3, kind
            assert "column reduction off by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name, target, off, label", [
        ("ctqw-hypercube", "ctqw.hypercube_antipode_prob",
         lambda f: lambda *args: f(*args) + 1e-6, "closed form"),
        ("analog-search", "ctqw.analog_search",
         lambda f: lambda *args: f(*args) + 1e-6, "two-level closed form"),
        ("szegedy-spectrum", "szegedy.spectrum_map",
         lambda f: lambda p: dataclasses.replace(f(p), pairing_error=1e-6),
         "phase pairing"),
        ("line-walk", "classical.line_walk_binomial",
         lambda f: lambda m: (f(m)[0], moved_middle_cell(f(m)[1])),
         "spread closed form"),
        ("decoherence-sweep", "coined.position_distribution",
         lambda f: lambda state: moved_middle_cell(f(state)),
         "binomial at unitarity 0"),
        ("fixed-point", "grover._uniform_phase", quarter_for_third,
         "cubing law"),
    ], ids=["ctqw-hypercube", "analog-search", "szegedy-spectrum",
            "line-walk", "decoherence-sweep", "fixed-point"])
    def test_failed_check_after_the_table_writes_nothing(
            self, tmp_path, monkeypatch, capsys, name, target, off, label):
        module, attr = target.split(".")
        module = getattr(experiments, module)
        monkeypatch.setattr(module, attr, off(getattr(module, attr)))
        assert run(ExperimentSpec(name, {}, None, str(tmp_path))) == 3
        assert f"{label} off by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_mirrored_shift_fails_the_unitary_limit(
            self, tmp_path, monkeypatch, capsys):
        # each color moves the other way: still a unitary channel, and the
        # same binomial at unitarity 0, but the mirror image of the
        # Hadamard walk, which leans one way, at unitarity 1
        grow = experiments.coined._grow_rows
        monkeypatch.setattr(experiments.coined, "_grow_rows",
                            lambda mixed, right: grow(mixed, 1 - right))
        spec = ExperimentSpec("decoherence-sweep", {}, None, str(tmp_path))
        assert run(spec) == 3
        assert "pure walk at unitarity 1 off by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    # the shift's query left off the ledger, and a coin that leaks norm,
    # each on the side the state is on
    @pytest.mark.parametrize("method, off, label", [
        ("shift",
         lambda shift: lambda self, state, side: state[self._gathers[side]],
         "query ledger q + 2 tau1 t2"),
        ("coin", lambda coin: lambda self, state, side: coin(
            self, state, side) * (1 + 1e-9), "norm drift"),
    ], ids=["ledger", "drift"])
    def test_subset_find_gates_exit_3(self, tmp_path, monkeypatch, capsys,
                                      method, off, label):
        walk = experiments.subset.SubsetWalk
        monkeypatch.setattr(walk, method, off(getattr(walk, method)))
        assert run(ExperimentSpec("subset-find", {}, 1, str(tmp_path))) == 3
        assert f"{label} off by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grover_plane_leakage_exits_3(self, tmp_path, monkeypatch,
                                          capsys):
        reflect = experiments.grover.Oracle.reflect

        def leaky(self, state):
            out = reflect(self, state)
            out[-1] += 1e-6  # item n - 1 is unmarked
            return out

        monkeypatch.setattr(experiments.grover.Oracle, "reflect", leaky)
        assert run(ExperimentSpec("grover", {}, None, str(tmp_path))) == 3
        assert "plane leakage off by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grover_unreflected_marked_sign_exits_3(self, tmp_path,
                                                    monkeypatch, capsys):
        # the state then never turns: it stays in the plane, but off the
        # closed form from the first step
        def unreflected(self, state):
            self.queries += 1
            return np.array(state, copy=True)

        monkeypatch.setattr(experiments.grover.Oracle, "reflect", unreflected)
        assert run(ExperimentSpec("grover", {}, None, str(tmp_path))) == 3
        assert "amplitude closed form off by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    # the absorbed probability read one step late, and C_(k+1) in place of C_k
    @pytest.mark.parametrize("shift", [1, -4], ids=["step", "catalan-index"])
    def test_absorbing_boundary_off_by_one_exits_3(self, tmp_path, monkeypatch,
                                                   capsys, shift):
        closed_form = experiments._absorbed_closed_form
        monkeypatch.setattr(experiments, "_absorbed_closed_form",
                            lambda m_max: np.roll(closed_form(m_max), shift))
        spec = ExperimentSpec("absorbing-boundary", {"m_max": "40"}, None,
                              str(tmp_path))
        assert run(spec) == 3
        assert "absorption closed form off by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_absorbed_closed_form_is_the_catalan_law(self):
        exact = experiments._absorbed_closed_form(403)
        want = np.zeros(404)
        want[1] = 0.5
        for k in range(101):
            want[4 * k + 3] = catalan(k) ** 2 / (8 * 16 ** k)
        assert np.allclose(exact, want, rtol=1e-13, atol=0.0)

    def test_gate_fails_closed_on_nan(self):
        trace.check("residual", 1.0, 1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(experiments.ToleranceError):
                trace.check("residual", bad, 1.0)

    def test_other_errors_are_not_reported_as_failed_checks(
            self, tmp_path, monkeypatch):
        def overflow(params, seed):
            raise RecursionError("not a numerical check")
        exp = experiments.catalog()["line-walk"]
        monkeypatch.setitem(experiments._REGISTRY, "line-walk",
                            exp._replace(func=overflow))
        with pytest.raises(RecursionError):
            run(ExperimentSpec("line-walk", {}, None, str(tmp_path)))


class TestEachWalkRunsOnce:
    """Each body reads the series its library call computed, instead of
    running the same walk, chain or construction a second time."""

    @staticmethod
    def count_calls(monkeypatch, owner, attr):
        calls = []
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
        return calls

    def test_grover_queries_the_oracle_once_per_step(self, tmp_path,
                                                     monkeypatch):
        calls = self.count_calls(monkeypatch, experiments.grover.Oracle,
                                 "reflect")
        meta, _, rows = run_ok(tmp_path, "grover", {"n": 64, "k": 2})
        assert len(calls) == meta["queries"] == len(rows) - 1

    def test_hitting_runs_the_classical_chain_once(self, tmp_path,
                                                   monkeypatch):
        calls = self.count_calls(monkeypatch, experiments.classical,
                                 "first_hit_distribution")
        run_ok(tmp_path, "hitting", {"dim": 3, "horizon": 40})
        assert len(calls) == 1

    def test_hitting_walks_from_a_real_start(self, tmp_path, monkeypatch):
        # the Grover coin is real, so a real start steps in real arithmetic
        calls = self.count_calls(monkeypatch, experiments.coined,
                                 "hitting_analysis")
        run_ok(tmp_path, "hitting", {"dim": 3, "horizon": 40})
        (op, psi0, target, horizon), = calls
        assert psi0.dtype == np.float64 and op.dtype == np.float64

    def test_subset_find_builds_one_subset_graph(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, experiments.graphs,
                                 "subset_bipartite")
        run_ok(tmp_path, "subset-find", {"n": 8, "q": 4, "k": 2, "r": 4},
               seed=11)
        assert len(calls) == 1

    def test_subset_find_steps_each_trajectory_once(self, tmp_path,
                                                    monkeypatch):
        calls = self.count_calls(monkeypatch, experiments.subset.SubsetWalk,
                                 "shift")
        meta, _, rows = run_ok(tmp_path, "subset-find", {}, seed=1)
        tau1, tau2 = meta["auto_tau1"], meta["auto_tau2"]
        assert (tau1, tau2) == (2, 2)
        # the auto run; one trajectory to tau2 + 2 for each tau1 of the
        # window, 1..tau1 + 2; one to 2 tau2 + 2 for the table
        window = sum(2 * t1 * (tau2 + 2) for t1 in range(1, tau1 + 3))
        assert len(rows) == 2 * tau2 + 3
        assert len(calls) == 2 * tau1 * tau2 + window + 2 * tau1 * (
            2 * tau2 + 2) == 112

    def test_marked_gap_freezes_each_marked_set_once(self, tmp_path,
                                                     monkeypatch):
        calls = self.count_calls(monkeypatch, experiments.szegedy,
                                 "marked_modify")
        run_ok(tmp_path, "marked-gap", {"n": 8, "k_max": 3})
        assert len(calls) == 3

    def test_mixing_body_measures_no_distance_itself(self, tmp_path,
                                                     monkeypatch):
        calls = self.count_calls(monkeypatch, experiments.distributions, "tvd")
        _, _, rows = run_ok(tmp_path, "mixing", {"n": 5, "t_max": 250})
        assert len(rows) == 250
        assert len(calls) == 0


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

    @pytest.mark.parametrize("m_max", [0, 1, 2, 7, 100, 400])
    def test_entropy_series_equals_full_array_entropies(self, m_max):
        exp = experiments.catalog()["entropy-series"]
        _, (steps, s_cl, s_q, _, _), _ = exp.func({"m_max": m_max}, None)
        coined, classical = experiments.coined, experiments.classical
        entropy = experiments.distributions.entropy
        op = coined.line_operator(m_max)
        want_q = [entropy(coined.position_distribution(psi))
                  for psi in coined.walk_states(op, coined.line_start(op),
                                                m_max)]
        want_cl = [entropy(classical.line_walk_binomial(m)[1])
                   for m in steps]
        assert s_q == want_q and s_cl == want_cl

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
        assert meta["krylov_dim"] == 5
        assert 0.0 <= meta["invariance_residual"] <= 1e-10

    def test_longest_accepted_times_pass_their_closed_form(self, tmp_path):
        for name, params in [("ctqw-hypercube", {"dim": 10, "t_max": 1e4}),
                             ("analog-search", {"n": 4096, "marked": 7,
                                                "t_max": 1e6})]:
            meta, _, rows = run_ok(tmp_path, name, params)
            assert rows[-1][0] == params["t_max"]
            assert meta["params"]["t_max"] == params["t_max"]

    def test_broken_krylov_apply_exits_3_without_output(self, tmp_path,
                                                       monkeypatch, capsys):
        ctqw = experiments.ctqw
        cube, search = ctqw.hypercube_apply, ctqw.complete_search_apply
        for noise in (lambda v: 1e-6 * np.roll(v, 1, axis=0),
                      lambda v: np.nan * v):
            monkeypatch.setattr(ctqw, "hypercube_apply", lambda dim: (
                lambda v: cube(dim)(v) + noise(v)))
            monkeypatch.setattr(ctqw, "complete_search_apply", lambda n, m: (
                lambda v: search(n, m)(v) + noise(v)))
            for name in ("ctqw-hypercube", "analog-search"):
                assert run(ExperimentSpec(name, {}, None, str(tmp_path))) == 3
                assert "Krylov-block residual off by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_spectral_sizes_stay_in_their_krylov_block(self, tmp_path,
                                                       monkeypatch):
        """No graph over 64 vertices is built and no matrix over 64 rows
        is decomposed, so the dense route cannot come back unnoticed."""
        def small_only(module, name, size):
            build = getattr(module, name)

            def guarded(*args, **kwargs):
                if size(*args) > 64:
                    raise AssertionError(f"{name} on more than 64")
                return build(*args, **kwargs)
            monkeypatch.setattr(module, name, guarded)

        small_only(experiments.graphs, "complete", lambda n, *rest: n)
        small_only(experiments.graphs, "hypercube", lambda dim: 2 ** dim)
        small_only(experiments.linalg, "eig_hermitian", len)
        for name, params in (("analog-search", {"n": "1024"}),
                             ("ctqw-hypercube", {"dim": "10"})):
            assert run(ExperimentSpec(name, params, None, str(tmp_path))) == 0

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
        assert meta["krylov_dim"] == 2
        assert 0.0 <= meta["invariance_residual"] <= 1e-10

    def test_half_marked_million_vertices(self, tmp_path):
        meta, _, rows = run_ok(tmp_path, "analog-search",
                               {"n": 2 ** 20, "marked": 2 ** 19,
                                "points": 10 ** 5})
        assert len(rows) == 10 ** 5
        assert meta["worst_difference"] < 1e-9

    @pytest.mark.parametrize("n, m", [(1000, 7), (12345, 6789)])
    def test_one_marked_row_stands_for_all(self, n, m):
        psi0 = np.full(n, 1.0 / np.sqrt(n))
        times = np.linspace(0.0, 1.25 * np.pi / 2.0 * np.sqrt(n / m), 201)
        coeffs, q, _ = experiments.linalg.evolve_krylov(
            experiments.ctqw.complete_search_apply(n, m), times, psi0)
        rows = (np.abs(coeffs @ q[:m].T) ** 2).sum(axis=1)
        one = m * np.abs(coeffs @ q[0]) ** 2
        assert np.max(np.abs(one - rows)) <= 1e-15

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


class Hung(Exception):
    pass


@contextlib.contextmanager
def watchdog(seconds):
    """Raise Hung in the code under test once ``seconds`` have passed."""
    def expire(signum, frame):
        raise Hung(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_every_float_parameter_at_an_edge_value_keeps_the_exit_codes(
        tmp_path):
    """Each float parameter of each experiment at the smallest subnormal,
    at -0.0 and at the largest double below 1, the others at their
    defaults: the run exits 0, 2 or 3 within 10 s, and writes no file
    unless it exits 0."""
    for name, exp in sorted(experiments.catalog().items()):
        seed = 0 if exp.needs_seed else None
        for key, meta in exp.schema.items():
            if meta.kind != "float":
                continue
            for value in ("5e-324", "-0.0", repr(math.nextafter(1.0, 0.0))):
                outdir = tmp_path / f"{name}-{key}-{value}"
                outdir.mkdir()
                spec = ExperimentSpec(name, {key: value}, seed, str(outdir))
                with watchdog(10):
                    status = run(spec)
                assert status in (0, 2, 3), (name, key, value)
                if status:
                    assert not list(outdir.iterdir()), (name, key, value)


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


DEMOS = Path(__file__).resolve().parents[1] / "demos"


def python_child(args, cwd):
    # The child runs in cwd, so a relative PYTHONPATH would not find walklab.
    src = str(Path(walklab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def module_cli(args, cwd):
    return python_child(["-m", "walklab.experiments", *args], cwd)


# Run in a fresh interpreter with the output directory as argv[1].
LAZY_SCIPY = """
import sys
import numpy as np
from walklab import experiments, linalg, trace

assert {"scipy.linalg", "scipy.special"}.isdisjoint(sys.modules)
spec = experiments.ExperimentSpec("hadamard-line", {}, None, sys.argv[1])
assert experiments.run(spec) == 0
assert "scipy.linalg" not in sys.modules
u = np.eye(4)[[1, 0, 3, 2]].astype(complex)  # eigenvalues +1, +1, -1, -1
values, vectors = linalg.unitary_eigensystem(u)
assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(4))) < 1e-12
assert np.max(np.abs((vectors * values) @ vectors.conj().T - u)) < 1e-12
assert "scipy.linalg" in sys.modules
import scipy.linalg
schur = scipy.linalg.schur


def skewed_schur(a, output):
    t, z = schur(a, output=output)
    return t + 1e-3, z


scipy.linalg.schur = skewed_schur
try:
    linalg.unitary_eigensystem(u)
except trace.ToleranceError as err:
    assert "Schur off-diagonal" in str(err)
else:
    raise AssertionError("the Schur gate did not fire")
"""


def test_scipy_loads_only_for_a_schur_decomposition(tmp_path):
    proc = python_child(["-c", LAZY_SCIPY, str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "hadamard-line.csv").exists()


# Run in a fresh interpreter with the output directory as argv[1].  A module
# loaded lazily sits in sys.modules with only its import metadata until it runs.
LAZY_MODULES = """
import io
import sys
import walklab
from walklab import experiments

LAZY = ["classical", "coined", "ctqw", "distributions", "graphs", "grover",
        "linalg", "scattering", "subset", "szegedy"]


def executed():
    return {name for name in LAZY + ["special"]
            if f"walklab.{name}" in sys.modules
            and "__all__" in object.__getattribute__(
                sys.modules[f"walklab.{name}"], "__dict__")}


assert executed() == set()
experiments.list_experiments(io.StringIO())
assert executed() == set()
spec = experiments.ExperimentSpec("grover", {}, None, sys.argv[1])
assert experiments.run(spec) == 0
assert executed() == {"grover"}, executed()
from walklab import classical, grover, szegedy
assert classical is experiments.classical and grover is experiments.grover
assert szegedy is experiments.szegedy
for name in LAZY:
    assert getattr(walklab, name) is getattr(experiments, name)
    assert getattr(walklab, name) is sys.modules[f"walklab.{name}"]
assert executed() == {"grover"}, executed()
for name in LAZY:
    assert getattr(walklab, name).__all__
assert executed() == set(LAZY)
assert set(walklab.__all__) | {"experiments", "trace"} <= set(dir(walklab))
try:
    walklab.nope
except AttributeError as err:
    assert "nope" in str(err)
else:
    raise AssertionError("walklab.nope resolved")
assert "special" not in executed()
"""

# Run in a fresh interpreter.  ``import walklab`` binds every library module,
# none of them executed, and leaves the experiments subpackage alone.
BARE_IMPORT = """
import pkgutil
import sys
import walklab

found = {m.name for m in pkgutil.iter_modules(walklab.__path__)}
assert "experiments" in found and "trace" in found, found
for name in found - {"experiments"}:
    module = vars(walklab)[name]
    assert module is sys.modules[f"walklab.{name}"], name
    assert "__all__" not in object.__getattribute__(module, "__dict__"), name
assert "experiments" not in vars(walklab)
assert "walklab.experiments" not in sys.modules
"""

# Run in a fresh interpreter.  ``import walklab.experiments`` executes the
# registry itself, so the import's time holds every registration.
EXPERIMENTS_IMPORT = """
import sys
import types
import walklab.experiments

module = sys.modules["walklab.experiments"]
assert type(module) is types.ModuleType
assert len(object.__getattribute__(module, "__dict__")["_REGISTRY"]) == 22
assert len(walklab.experiments.catalog()) == 22
"""

# Run in a fresh interpreter with the output directory as argv[1].
PATCHED_BEFORE_FIRST_RUN = """
import sys
import walklab
from walklab import experiments

calls = []
grover_run = walklab.grover.grover_run


def counted(*args):
    calls.append(args)
    return grover_run(*args)


walklab.grover.grover_run = counted
spec = experiments.ExperimentSpec("grover", {"n": "64"}, None, sys.argv[1])
assert experiments.run(spec) == 0
assert len(calls) == 1, calls
"""


def test_library_modules_load_on_first_use(tmp_path):
    proc = python_child(["-c", LAZY_MODULES, str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "grover.csv").exists()


def test_a_bare_import_binds_every_library_module_unexecuted(tmp_path):
    proc = python_child(["-c", BARE_IMPORT], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_importing_experiments_executes_its_registry(tmp_path):
    proc = python_child(["-c", EXPERIMENTS_IMPORT], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_a_patch_before_the_first_run_is_seen_by_it(tmp_path):
    proc = python_child(["-c", PATCHED_BEFORE_FIRST_RUN, str(tmp_path)],
                        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "grover.csv").exists()


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

    @pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")),
                             ids=lambda path: path.name)
    def test_demo_runs(self, tmp_path, demo):
        proc = python_child([str(demo)], tmp_path)
        assert proc.returncode == 0, proc.stderr
