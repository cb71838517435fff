"""Closed-loop benchmark of walklab's experiment runner.

    python3 perfbench/run.py --workload defaults --seed 0 --seconds 30 --trace 0

One caller runs a workload's experiments through
``walklab.experiments.run(ExperimentSpec(...))``, one after another, each
waiting for the previous one, and checks every run's output files.  After a
warm-up pass it repeats the pass until ``--seconds`` have elapsed, timing a
fresh-interpreter import of the package before each pass, and reports
medians.  Pass times are also divided by the time of a fixed calibration
kernel run between the experiment runs, which takes out the host's drift.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` follows each pass
with a traced one and prints the per-layer metrics.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; a fuller record with provenance goes to
``.perfbench/<workload>-s<seed>-trace<0|1>.json`` in the checkout.
"""

import os

# BLAS threads are pinned before numpy is first imported.  One thread keeps
# two BLAS workers from contending for the cores with each other and with
# anything else on a small machine, and stays within any core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gzip
import importlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import Reference, RunChecker
from tracer import COUNTS, MODULES, PROBES, Tracer
from workloads import WHY, WORKLOADS, run_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
MIN_PASSES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import walklab.experiments; print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def time_import():
    """Seconds to import walklab.experiments in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout)


class Calibration:
    """A fixed mix of work that shares no code with walklab.

    The machine's speed drifts by up to 1.5x within seconds on a shared
    host, and every experiment slows with it.  A short run of this kernel
    before each experiment run, and after the last, samples the machine's
    speed all through a pass; pass time over calibration time then follows
    the program and not the host.  Its parts are interpreter loops, small
    numpy calls, dense LAPACK and memory streaming, in roughly equal shares:
    the kinds of work that carry the three workloads.
    """

    def __init__(self):
        import numpy
        self.np = numpy
        rng = numpy.random.default_rng(0)
        self.small = rng.standard_normal((16, 16)) / 8
        sym = rng.standard_normal((80, 80))
        self.sym = sym + sym.T
        self.square = (rng.standard_normal((44, 44))
                       + 1j * rng.standard_normal((44, 44)))
        self.big = rng.standard_normal(500_000)
        self.out = numpy.empty_like(self.big)

    def __call__(self):
        """Seconds for one run of the kernel."""
        np = self.np
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        a = self.small
        for _ in range(800):
            a = np.abs(a @ self.small) + 0.01
        np.linalg.eigh(self.sym)
        np.linalg.eig(self.square)
        for _ in range(4):
            np.multiply(self.big, 1.0001, out=self.out)
            np.add(self.out, self.big, out=self.out)
        return time.perf_counter() - start


class Sweep:
    """The runs of one workload at one workload seed, and their checks."""

    def __init__(self, experiments, workload, seed, outdir):
        self.experiments = experiments
        registry = experiments.catalog()
        self.runs = []
        for index, (label, name, params) in enumerate(WORKLOADS[workload]):
            run_s = run_seed(seed, index) if registry[name].needs_seed else None
            directory = Path(outdir) / label
            directory.mkdir(parents=True)
            stem = name if run_s is None else f"{name}-s{run_s}"
            self.runs.append((label, name, params, run_s, directory / stem))
        self.checker = RunChecker(Reference(workload))
        self.attempted = 0
        self.failures = []
        self.setup = []
        self.pass_times = []
        self.calibration = Calibration()
        self.calibrations = []
        self.relative = []
        self.run_times = []
        self.traced = []
        self.tracer = None

    def measure(self, seconds, trace):
        """Warm-up pass, then timed passes until ``seconds`` have elapsed.

        A fresh-interpreter import is timed before every untraced pass, so
        the set-up samples span the same stretch of time as the passes.
        Untraced passes run the calibration kernel between their runs.
        With ``trace``, a traced pass follows each untraced one, so that
        both see the same machine and their difference is the overhead.
        """
        deadline = time.perf_counter() + seconds
        self.setup.append(time_import())
        self.run_pass()
        while True:
            started = time.perf_counter()
            self.setup.append(time_import())
            elapsed, times, calibration = self.run_pass(self.calibration)
            self.pass_times.append(elapsed)
            self.calibrations.append(calibration)
            self.relative.append(elapsed / calibration)
            self.run_times.append(times)
            if trace:
                with Tracer() as self.tracer:
                    elapsed, _, _ = self.run_pass()
                self.traced.append(layer_metrics(self.tracer, elapsed))
            now = time.perf_counter()
            if (len(self.pass_times) >= MIN_PASSES
                    and now + (now - started) > deadline):
                return

    def run_pass(self, calibrate=None):
        """Run every experiment once.

        Returns the pass time, the run times and the time spent in
        ``calibrate``, which runs before each experiment run and after the
        last; the pass time leaves it out.
        """
        for *_, stem in self.runs:
            for suffix in (".csv", ".json"):
                stem.with_suffix(suffix).unlink(missing_ok=True)
        statuses, times, messages = [], [], []
        run, spec = self.experiments.run, self.experiments.ExperimentSpec
        clock = time.perf_counter
        sink = io.StringIO()
        calibration = 0.0
        started = clock()
        for label, name, params, seed, stem in self.runs:
            if calibrate:
                calibration += calibrate()
            stderr = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(stderr):
                start = clock()
                try:
                    status = run(spec(name, params, seed, str(stem.parent)))
                except Exception as err:  # counted as a failed run
                    status = type(err).__name__
                times.append(clock() - start)
            statuses.append(status)
            messages.append(stderr.getvalue().strip())
        if calibrate:
            calibration += calibrate()
        elapsed = clock() - started - calibration
        self._check(statuses, messages)
        return elapsed, times, calibration

    def _check(self, statuses, messages):
        for (label, _, _, seed, stem), status, message in zip(
                self.runs, statuses, messages):
            self.attempted += 1
            reason = self.checker.check(label, seed, status,
                                        stem.with_suffix(".csv"),
                                        stem.with_suffix(".json"))
            if reason is not None:
                self.failures.append({"run": label, "seed": seed,
                                      "reason": reason, "stderr": message})


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def layer_metrics(tracer, pass_s):
    """Per-layer metrics from one traced pass."""
    self_s, calls = tracer.layers()
    out = {}
    for module in MODULES:
        out[f"{module}.self_s"] = (self_s.get(module, 0.0), "s")
        out[f"{module}.calls"] = (calls.get(module, 0), "count")
    for name in PROBES:
        probe = tracer.probes[name]
        out[f"{name}.s"] = (probe.seconds, "s")
        out[f"{name}.calls"] = (probe.calls, "count")
    for name in COUNTS:
        out[name] = (tracer.counts[name], "bytes" if name.endswith("bytes")
                     else "count")
    scanned = tracer.children_of("classical.mixing_time", "distributions.tvd")
    returned = tracer.counts["classical.mixing_time.returned"]
    out["classical.mixing_time.scanned"] = (scanned, "count")
    out["classical.mixing_time.useful_ratio"] = (
        returned / scanned if scanned else 0.0, "ratio")
    out["trace.pass_s"] = (pass_s, "s")
    out["trace.unaccounted_s"] = (pass_s - sum(self_s.values()), "s")
    return out


def summarize_layers(passes, failures):
    """Median times across traced passes; counts must repeat exactly."""
    first = passes[0]
    out = {}
    for name, (value, unit) in first.items():
        values = [p[name][0] for p in passes]
        if unit == "s":
            out[name] = metric(statistics.median(values), unit, len(values))
            continue
        if any(v != value for v in values):
            failures.append({"run": "trace", "seed": None, "stderr": "",
                             "reason": f"count {name} changed between "
                                       f"traced passes: {values}"})
        out[name] = metric(value, unit, len(values))
    return out


def end_to_end_metrics(sweep):
    passes = len(sweep.pass_times)
    return {
        "setup_s": metric(statistics.median(sweep.setup), "s",
                          len(sweep.setup)),
        "sweep_rel": metric(statistics.median(sweep.relative), "ratio",
                            passes),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1),
    }


def layer_summary(sweep):
    """Per-layer metrics: traced-pass medians and counts, the tracing
    overhead, and each experiment's untraced time per pass."""
    out = summarize_layers(sweep.traced, sweep.failures)
    out["trace.overhead_s"] = metric(
        out["trace.pass_s"]["value"] - statistics.median(sweep.pass_times),
        "s", len(sweep.traced))
    for name in sorted(sweep.experiments.catalog()):
        columns = [i for i, run in enumerate(sweep.runs) if run[1] == name]
        value = statistics.median(sum(t[i] for i in columns)
                                  for t in sweep.run_times) if columns else 0.0
        out[f"experiments.{name}.s"] = metric(value, "s", len(sweep.run_times))
    return out


def spans_csv(tracer):
    lines = ["name,start_s,end_s,parent"]
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    for name, _, start, end, parent in tracer.spans:
        lines.append(f"{name},{start - origin:.9f},{end - origin:.9f},{parent}")
    return "\n".join(lines) + "\n"


def provenance(args):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    commit = "unknown"  # a checkout without .git has no commit to read
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "walklab" / "experiments" / "__init__.py").is_file():
        print(f"perfbench: no walklab sources under {SRC}; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Importing here first also compiles the bytecode the timed imports use.
    experiments = importlib.import_module("walklab.experiments")
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="out-") as outdir:
        sweep = Sweep(experiments, args.workload, args.seed, outdir)
        sweep.measure(args.seconds, args.trace)
    end_to_end = end_to_end_metrics(sweep)
    per_layer = layer_summary(sweep) if args.trace else {}
    failed = len(sweep.failures)
    # Printed with the end-to-end metrics but not declared as such: wall
    # times follow the host's drifting speed, so they spread more from run
    # to run than the largest bound allowed, and a zero median has no
    # relative bound (see README).
    also_shown = {
        "sweep_s": metric(statistics.median(sweep.pass_times), "s",
                          len(sweep.pass_times)),
        "run_geomean_s": metric(
            statistics.median(geomean(t) for t in sweep.run_times), "s",
            len(sweep.run_times)),
        "failed_frac": metric(failed / sweep.attempted, "ratio",
                              sweep.attempted),
    }
    if args.trace:
        per_layer["run_geomean_s"] = also_shown["run_geomean_s"]

    record = {
        "provenance": provenance(args),
        "why": WHY[args.workload],
        "attempted": sweep.attempted,
        "failed": failed,
        "failures": sweep.failures,
        "end_to_end": end_to_end,
        "also_shown": also_shown,
        "per_layer": per_layer,
        "samples": {"setup_s": sweep.setup, "pass_s": sweep.pass_times,
                    "calibration_s": sweep.calibrations,
                    "sweep_rel": sweep.relative,
                    "run_s": {run[0]: [t[i] for t in sweep.run_times]
                              for i, run in enumerate(sweep.runs)}},
    }
    stem = RESULTS / f"{args.workload}-s{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if sweep.tracer is not None:
        stem.with_suffix(".spans.csv.gz").write_bytes(
            gzip.compress(spans_csv(sweep.tracer).encode(), mtime=0))

    print(f"workload {args.workload}, seed {args.seed}: {WHY[args.workload]}")
    prov = record["provenance"]
    print(f"commit {prov['commit']}, nproc {prov['nproc']}, python "
          f"{prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"{prov['blas']} with {BLAS_THREADS} thread(s)")
    shown = {**end_to_end, **also_shown, **per_layer}
    for name, m in shown.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']:6s} "
              f"n={m['samples']}")
    for failure in sweep.failures:
        print(f"FAILED {failure['run']} (seed {failure['seed']}): "
              f"{failure['reason']}", file=sys.stderr)

    reported = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sweep.attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
