"""Golden outputs: every experiment at its defaults reproduces the stored
reference CSV of the benchmark's ``defaults`` workload within its pinned
tolerance, and writes a strict-JSON sidecar.

The references, the checker and the workload list live in ``perfbench/``;
this test loads ``check.py`` and ``workloads.py`` by file path and only reads
them.  Stochastic experiments run at the seed the benchmark gives them in
workload seed 0, which the references cover.  The Metropolis experiments
and ``nand`` also run at every other seed the references hold for them,
and must repeat those CSVs byte for byte: the samplers replay numpy's
stream from raw words and ``nand`` reads its coin flips from numpy's
vector draws, so any drift from the Generator's scalar draws shows here.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from walklab import experiments, trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")
DEFAULTS = workloads.WORKLOADS["defaults"]
REFERENCE = check.Reference("defaults")
SEEDED = sorted(key for key in REFERENCE.texts
                if key.startswith(("mcmc-partition-s", "annealing-s",
                                   "nand-s")))


# the experiments whose default run passes no finite-budget check besides
# the runner's non-finite cells: the two samplers are stochastic, and the
# others still wait for an exact form to hold their output to
UNGATED = {"annealing", "complete-graph-search", "cost-table",
           "entropy-series", "hitting", "mcmc-partition", "star-search"}


@pytest.fixture(scope="module")
def checker():
    return check.RunChecker(REFERENCE)


@pytest.mark.parametrize("index", range(len(DEFAULTS)),
                         ids=[label for label, _, _ in DEFAULTS])
def test_default_run_matches_reference(tmp_path, monkeypatch, checker,
                                       index):
    """The run matches its reference, and it passes a finite-budget check
    besides the runner's non-finite cells exactly when it is not in
    UNGATED."""
    label, name, params = DEFAULTS[index]
    seed = (workloads.run_seed(0, index)
            if experiments.catalog()[name].needs_seed else None)
    gates, original = [], trace.check

    def spy(what, value, budget):
        if math.isfinite(budget) and not what.startswith("non-finite cells"):
            gates.append(what)
        return original(what, value, budget)

    monkeypatch.setattr(trace, "check", spy)
    status = experiments.run(
        experiments.ExperimentSpec(name, params, seed, str(tmp_path)))
    stem = tmp_path / (name if seed is None else f"{name}-s{seed}")
    reason = checker.check(label, seed, status, stem.with_suffix(".csv"),
                           stem.with_suffix(".json"))
    assert reason is None, reason
    assert (name in UNGATED) == (not gates), gates


@pytest.mark.parametrize("key", SEEDED)
def test_seeded_run_repeats_reference_bytes(tmp_path, checker, key):
    name, _, seed = key.rpartition("-s")
    status = experiments.run(
        experiments.ExperimentSpec(name, {}, int(seed), str(tmp_path)))
    stem = tmp_path / key
    reason = checker.check(name, int(seed), status, stem.with_suffix(".csv"),
                           stem.with_suffix(".json"))
    assert reason is None, reason
    assert stem.with_suffix(".csv").read_text() == REFERENCE.texts[key]
