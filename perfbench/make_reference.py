"""Write the stored reference CSVs the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Runs every workload once per workload seed in REFERENCE_SEEDS and stores each
run's CSV, gzipped, under ``perfbench/reference/<workload>/``: deterministic
runs once as ``<label>.csv.gz``, stochastic runs as ``<label>-s<seed>.csv.gz``
at their derived seed.  Regenerate only from a commit whose outputs are
trusted; a reference written from a broken commit hides the breakage.
"""

import gzip
import importlib
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported
from check import REFERENCE_DIR
from workloads import WORKLOADS, run_seed

REFERENCE_SEEDS = range(10)


def main():
    sys.path.insert(0, str(run.SRC))
    experiments = importlib.import_module("walklab.experiments")
    registry = experiments.catalog()
    shutil.rmtree(REFERENCE_DIR, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        for workload, runs in WORKLOADS.items():
            target = REFERENCE_DIR / workload
            target.mkdir(parents=True)
            for index, (label, name, params) in enumerate(runs):
                stochastic = registry[name].needs_seed
                seeds = [run_seed(s, index) for s in REFERENCE_SEEDS] \
                    if stochastic else [None]
                for seed in seeds:
                    spec = experiments.ExperimentSpec(name, params, seed, tmp)
                    if experiments.run(spec) != 0:
                        raise SystemExit(f"{workload}/{label} failed at seed {seed}")
                    stem = name if seed is None else f"{name}-s{seed}"
                    key = label if seed is None else f"{label}-s{seed}"
                    data = (Path(tmp) / f"{stem}.csv").read_bytes()
                    (target / f"{key}.csv.gz").write_bytes(
                        gzip.compress(data, mtime=0))


if __name__ == "__main__":
    main()
