"""Named, reproducible experiment runs over the whole package.

Every experiment is registered under a stable name with a typed parameter
schema, as a function ``func(params, seed) -> (header, columns, summary)`` that
writes nothing.  A run reports success through its exit status: 0 for a
completed run, 2 when the request itself is invalid (unknown experiment,
unknown, malformed or out-of-range parameter, missing seed), 3 when the run
finished but an internal numerical check failed.  The runner writes the CSV
data file and then the JSON metadata sidecar only after every check has
passed, so a run that exits 2 or 3 leaves no file.  Identical (experiment,
parameters, seed) requests produce byte-identical CSV files.

Use ``python -m walklab.experiments list`` for the catalog and
``python -m walklab.experiments run NAME --param key=value`` to execute one.
"""

import itertools
import math
import sys
import time
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import walklab
from walklab import (classical, coined, ctqw, datafiles, distributions, graphs,
                     grover, linalg, scattering, subset, szegedy, trace)
from walklab.trace import ToleranceError


__all__ = [
    "ToleranceError",
    "ExperimentSpec",
    "Experiment",
    "Param",
    "catalog",
    "run",
    "list_experiments",
]


ExperimentSpec = namedtuple("ExperimentSpec", "name params seed outdir")
# func(params, seed) returns (header, columns, summary), each column an
# array, list or range, all of one length; the runner refuses a NaN or inf
# in any table cell but the (column, row) cells listed in nan_cells
Experiment = namedtuple("Experiment",
                        "name description schema needs_seed func nan_cells")
# lo and hi, when given, bound a value inclusively, checked before a run
Param = namedtuple("Param", "kind default help lo hi", defaults=(None, None))

_COERCE = {"int": int, "float": float, "str": str}
_REGISTRY = {}

# Largest graph the Szegedy experiments accept: the walk lives on n^2 vertex
# pairs, and the compressed spectra still hold n^2 x 2n arrays.
SZEGEDY_MAX_VERTICES = 128

# Largest full density matrix decoherence-sweep accepts, in bytes: the
# complex rho of the m-step line walk is (4m + 10)^2 x 16 B, so m <= 253.
DECOHERENCE_MAX_BYTES = 2 ** 24
_DECOHERENCE_MAX_M = (math.isqrt(DECOHERENCE_MAX_BYTES // 16) - 10) // 4

# Largest glued-trees phase table, points x nodes x 16 B in linalg.evolve_many:
# cycle n = 1000 at 2097 points, the most accepted, takes 1.8 s and 378 MB RSS.
GLUED_TREES_MAX_BYTES = 2 ** 26

# Most operator applications fixed-point accepts at its deepest level, which
# applies the oracle and the uniform-state phase (3^levels - 1)/2 times each.
# At n = 8 one costs about 2.9 us (level 9 in 0.029 s), so the deepest
# accepted level, 12 = floor(log3 of the budget), takes about 0.76 s.  Every
# level comes from one recursion, so a whole run costs about its deepest
# level: levels = 12 takes 0.88 s at n = 8 and 1.13 s at n = 1024, where one
# level-12 run takes 1.05 s (one BLAS thread).
FIXED_POINT_MAX_APPLICATIONS = 3 ** 12
_FIXED_POINT_MAX_LEVELS = len(np.base_repr(FIXED_POINT_MAX_APPLICATIONS, 3)) - 1

# Most Metropolis steps annealing accepts, runs x levels x (inner + 2): the
# largest request the caps accept at the default temperatures, 1000 runs of
# 36 levels at 2000 steps, which takes about 15 s at bits 8 (16.5 s at bits
# 16) and one BLAS thread.  A level costs Python besides its moves, about two
# moves' worth: at bits 8, 10 runs of 36,036 levels at inner 0 took 0.17 s
# and 10 runs of 18,000 levels at inner 4 took 0.24 s.  So a level counts as
# inner + 2 steps, and the dearest request accepted, 1000 runs of 36,036
# levels at inner 0, takes about 17 s.
ANNEALING_MAX_STEPS = 1000 * 36 * (2000 + 2)

# Most samples mcmc-partition draws, levels x samples, each after ten
# Metropolis moves: the levels cap at the default samples, 1000 x 200, which
# takes 0.39 s at bits 6 and 0.42 s at bits 20 with one BLAS thread, as do
# 20 levels at the 10^4-sample cap.  Both caps at once take about 19 s.
MCMC_PARTITION_MAX_SAMPLES = 1000 * 200

# Most leaves nand visits, instances x (trials + 1) x 2^depth: a tree is
# drawn and evaluated over its 2^depth leaves, and a classical trial visits
# at most all of them.  The limit is depth 16 at the default 20 instances
# and 4 trials, 1.4 s with one BLAS thread.  A trial visits about
# 1.686^depth leaves, so the dearest requests accepted have one trial:
# 50 trees at depth 16 take 3.2 s, 6,400 at depth 9 3.1 s.
NAND_MAX_LEAVES = 20 * (4 + 1) * 2 ** 16

# Most points cost-table scans, rows x grid, with one row per (variant, k):
# the 12 rows of the default k_max at the largest grid, 10^6, which take
# 0.33 s and 122 MB; k_max = 100 has 297 rows and stops at grid 40,404.
COST_TABLE_MAX_POINTS = 12 * 10 ** 6

# Vertex count of each one-size graph family, so that an oversized Szegedy
# request is refused before its edge list is built.  Each key is the name of
# its builder in ``graphs``.  The exponential ones cap the exponent: 2**64 is
# already over any limit.
_VERTEX_COUNTS = {
    "line": lambda n: n,
    "cycle": lambda n: n,
    "complete": lambda n: n,
    "star_extra_edge": lambda n: n + 1,
    "hypercube": lambda n: 2 ** min(n, 64),
    "glued_trees": lambda n: 3 * 2 ** (min(n, 64) - 1) - 2,
}
_FAMILIES = ", ".join(_VERTEX_COUNTS)


def _register(name, description, schema, needs_seed=False, nan_cells=()):
    def wrap(func):
        _REGISTRY[name] = Experiment(name, description, schema, needs_seed,
                                     func, nan_cells)
        return func
    return wrap


def catalog():
    """The experiment registry, name to Experiment record."""
    return dict(_REGISTRY)


def _outpath(spec, suffix):
    tag = spec.name if spec.seed is None else f"{spec.name}-s{spec.seed}"
    return str(Path(spec.outdir) / f"{tag}.{suffix}")


def _range(key, meta):
    """The declared range of one parameter as text, or None."""
    if meta.hi is None:
        return None if meta.lo is None else f"{key} >= {meta.lo}"
    return " <= ".join(str(x) for x in (meta.lo, key, meta.hi)
                       if x is not None)


def _resolve_params(exp, given):
    params = {}
    for key, value in given.items():
        if key not in exp.schema:
            raise ValueError(f"unknown parameter {key!r} for {exp.name}")
        kind = exp.schema[key].kind
        try:
            params[key] = _COERCE[kind](value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"parameter {key}={value!r} is not a valid {kind}") from None
        if kind == "float" and not math.isfinite(params[key]):
            raise ValueError(f"parameter {key}={value!r} is not finite")
    for key, meta in exp.schema.items():
        value = params.setdefault(key, meta.default)
        if ((meta.lo is not None and value < meta.lo)
                or (meta.hi is not None and value > meta.hi)):
            raise ValueError(f"parameter {key}={value} is outside "
                             f"{_range(key, meta)}")
    return params


def run(spec):
    """Execute one experiment and return the process exit status."""
    exp = _REGISTRY.get(spec.name)
    if exp is None:
        print(f"unknown experiment {spec.name!r}; "
              "see `python -m walklab.experiments list`", file=sys.stderr)
        return 2
    try:
        params = _resolve_params(exp, spec.params)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if exp.needs_seed and spec.seed is None:
        print(f"error: {spec.name} is stochastic and needs --seed",
              file=sys.stderr)
        return 2
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    clock = time.perf_counter()
    try:
        header, columns, summary = exp.func(params, spec.seed)
        for key, value in summary.items():
            if isinstance(value, (int, float)):
                trace.check(f"summary value {key}", abs(value), math.inf)
        _check_cells(exp, header, columns)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ToleranceError as err:
        print(f"numerical check failed: {err}", file=sys.stderr)
        return 3
    # every check has passed: only now is anything written
    csv_path = _outpath(spec, "csv")
    datafiles.write_csv(csv_path, header, columns)
    duration = time.perf_counter() - clock
    meta_path = _outpath(spec, "json")
    datafiles.write_metadata(
        meta_path, spec.name, params, spec.seed, started, duration,
        [csv_path],
        description=exp.description,
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "walklab": walklab.__version__,
        },
        **summary,
    )
    print(f"{spec.name}: wrote {csv_path} and {meta_path} "
          f"in {duration:.2f}s")
    return 0


def _check_cells(exp, header, columns):
    """Refuse a NaN or inf in any column of numbers holding a float, save
    in the cells the experiment lists as NaN by design."""
    for name, column in zip(header, columns):
        values = np.asarray(column)
        if values.dtype.kind not in "fc":
            continue
        bad = ~np.isfinite(values)
        for cell_column, row in exp.nan_cells:
            if cell_column == name:
                bad[row] &= not np.isnan(values[row])
        trace.check(f"non-finite cells in {name}",
                    int(np.count_nonzero(bad)), 0)


def list_experiments(file=None):
    """Print the catalog with parameter schemas."""
    file = file or sys.stdout
    for name in sorted(_REGISTRY):
        exp = _REGISTRY[name]
        seed_note = "  (seed required)" if exp.needs_seed else ""
        print(f"{name}{seed_note}", file=file)
        print(f"    {exp.description}", file=file)
        for key, meta in exp.schema.items():
            bounds = _range(key, meta)
            bounds = f" ({bounds})" if bounds else ""
            print(f"    --param {key}=<{meta.kind}>  "
                  f"default {meta.default!r}{bounds}: {meta.help}", file=file)
    print(f"\n{len(_REGISTRY)} experiments registered", file=file)


@_register(
    "line-walk",
    "Exact m-step fair walk on the integers with its Gaussian envelope.",
    {"m": Param("int", 100, "number of steps", lo=1)},
)
def _line_walk(p, seed):
    m = p["m"]
    positions, probs = classical.line_walk_binomial(m)
    spread = float(np.sqrt(probs @ positions.astype(float) ** 2))
    # worst residual 2.2e-16, over m = 1..300, 500, 1000, 1022 and 1023
    trace.check("spread closed form", abs(spread / math.sqrt(m) - 1.0), 1e-13)
    return (["position", "probability", "gaussian_approx"],
            (positions, probs, classical.line_walk_gaussian(m, positions)),
            {"spread": spread})


@_register(
    "hadamard-line",
    "Position distribution of the coined Hadamard walk after m steps.",
    # m = 10^4 takes 1.6 s from a real start and 3.0 s from a complex one
    {"m": Param("int", 100, "number of steps", lo=0, hi=10 ** 4),
     "q": Param("float", 1.0, "weight of the up coin component"),
     "sigma": Param("float", 0.0, "relative phase of the down component")},
)
def _hadamard_line(p, seed):
    op = coined.line_operator(p["m"])
    psi = coined.walk_run(op, coined.line_start(op, p["q"], p["sigma"]), p["m"])
    dist = coined.position_distribution(psi)
    positions = coined.line_positions(op)
    stats = distributions.dist_stats(positions, dist)
    return (["position", "probability"], (positions, dist),
            {"mean": stats.mean, "spread": math.sqrt(stats.variance)})


@_register(
    "entropy-series",
    "Position entropy of the classical and Hadamard walks at every step.",
    # line_walk_binomial overflows a float past m = 1023, which takes 0.19 s
    {"m_max": Param("int", 100, "largest step count", lo=0, hi=1023)},
    # the asymptote (1 + log(pi m / 2)) / 2 has no value at m = 0
    nan_cells=(("classical_asymptote", 0),),
)
def _entropy_series(p, seed):
    op = coined.line_operator(p["m_max"])
    states = coined.walk_states(op, coined.line_start(op), p["m_max"])
    steps = range(p["m_max"] + 1)
    # after t steps only the sites c - t, c - t + 2, ..., c + t can be
    # occupied; entropy drops the zeros elsewhere, so reading these alone
    # sums the same terms in the same order
    c = op.n // 2
    s_q = [distributions.entropy(
        coined.position_distribution(psi[c - t:c + t + 1:2]))
        for t, psi in enumerate(states)]
    s_cl = [distributions.entropy(classical.line_walk_binomial(m)[1][::2])
            for m in steps]
    asym = [(1.0 + math.log(math.pi * m / 2.0)) / 2.0 if m else float("nan")
            for m in steps]
    return (["m", "classical_entropy", "quantum_entropy",
             "classical_asymptote", "uniform_bound"],
            (steps, s_cl, s_q, asym, [math.log(m + 1.0) for m in steps]), {})


@_register(
    "decoherence-sweep",
    "Interpolation from ballistic to diffusive spreading as measurement "
    "interrupts the Hadamard walk.",
    {"m": Param("int", 50, "number of steps", lo=0, hi=_DECOHERENCE_MAX_M),
     # one decohere_evolve per rate, about 0.12 s each at m = 253
     "points": Param("int", 11, "unitarity rates to sample", lo=1, hi=101),
     "projectors": Param("str", "both", "coin, position, both, or edge-phase")},
)
def _decoherence_sweep(p, seed):
    m = p["m"]
    op = coined.line_operator(m)
    psi0 = coined.line_start(op)
    rho0 = coined.DensityState.from_pure(psi0)
    positions = coined.line_positions(op)
    bpos, bprobs = classical.line_walk_binomial(m)
    binom = np.zeros(op.n)
    binom[op.n // 2 + bpos] = bprobs
    rates = np.linspace(0.0, 1.0, p["points"])
    dists = [coined.position_distribution(coined.decohere_evolve(
        op, float(rate), p["projectors"], rho0, m)) for rate in rates]
    spread = [math.sqrt(max(distributions.dist_stats(positions, d).variance,
                            0.0)) for d in dists]
    tvd = [distributions.tvd(d, binom) for d in dists]
    # fully measured, the walk is the classical one: worst 4.6e-14 at m = 253
    trace.check("binomial at unitarity 0", tvd[0], 1e-11)
    if p["points"] > 1:
        # the last rate is then 1: never measured, the walk is the pure one,
        # which also sees a wrong shift of the coherences that the binomial
        # cannot: worst 1.7e-15 at m = 253
        pure = coined.position_distribution(coined.walk_run(op, psi0, m))
        trace.check("pure walk at unitarity 1",
                    distributions.tvd(dists[-1], pure), 1e-12)
    return (["unitarity", "spread", "tvd_from_binomial"],
            (rates, spread, tvd), {"steps": m})


@_register(
    "absorbing-boundary",
    "Hadamard walker beside an absorbing wall: per-step and cumulative "
    "absorption, whose limit is 2/pi.",
    # m_max = 20,000 takes 0.14 s; the library's 10^5 steps take 1.8 s
    {"m_max": Param("int", 4000, "number of steps", lo=1, hi=20000)},
)
def _absorbing_boundary(p, seed):
    res = coined.absorbing_line_quantum(p["m_max"])
    # 180 times the worst residual at any m_max up to the cap, 1.1e-16
    residual = np.abs(res.per_step - _absorbed_closed_form(p["m_max"]))
    trace.check("absorption closed form", float(np.max(residual)), 2e-14)
    return (["step", "absorbed", "cumulative"],
            (range(p["m_max"] + 1), res.per_step, res.cumulative),
            {"final_cumulative": float(res.cumulative[-1]),
             "limit_two_over_pi": 2.0 / math.pi,
             "classical_limit": classical.absorbing_hit_prob_line(0.5)})


def _absorbed_closed_form(m_max):
    """Probability the absorbing wall takes at each step 0..m_max: 1/2 at
    step 1, C_k^2 / (8 16^k) at step 4k+3 with C_k the k-th Catalan number,
    and 0 at every other step."""
    exact = np.zeros(m_max + 1)
    exact[1] = 0.5
    k = np.arange((m_max + 1) // 4, dtype=float)
    # C_k / C_(k-1) = 2(2k-1) / (k+1), so each term is the one before it
    # times ((2k-1) / (2k+2))^2
    ratio = ((2.0 * k - 1.0) / (2.0 * k + 2.0)) ** 2
    ratio[:1] = 0.125
    exact[3::4] = np.cumprod(ratio)
    return exact


@_register(
    "complete-graph-search",
    "Edge walk searching k marked vertices of the complete graph inside "
    "its invariant subspace.",
    # n = 2000 takes 0.62 s and 266 MB, n = 4000 2.4 s and 885 MB
    {"n": Param("int", 100, "number of vertices", lo=3, hi=2000),
     "k": Param("int", 1, "number of marked vertices", lo=1)},
)
def _complete_graph_search(p, seed):
    n, k = p["n"], p["k"]
    summary = scattering.complete_graph_search(n, k)
    return (["step"] + [f"prob_{lab}" for lab in summary.labels]
            + ["success"],
            (range(len(summary.successes)), *summary.probabilities.T,
             summary.successes),
            {"opt_steps": summary.steps, "best_steps": summary.best_steps,
             "success_at_opt": summary.success})


@_register(
    "star-search",
    "Edge walk on a star with one hidden extra edge, tracked inside its "
    "five-dimensional invariant subspace.",
    # n = 10^9 takes 0.74 s and 10^11 7.0 s
    {"n": Param("int", 400, "number of spikes", lo=3, hi=10 ** 9),
     "r0": Param("float", 0.0, "reflection coefficient of the special spikes")},
)
def _star_search(p, seed):
    res = scattering.star_graph_search(p["n"], p["r0"])
    return (["step", "hub_to_special", "special_to_hub", "hub_to_plain",
             "plain_to_hub", "extra_edge", "triangle_probability"],
            (range(len(res.trajectory)), *res.trajectory.T,
             res.triangle_series),
            {"opt_steps": res.opt_steps, "best_steps": res.best_steps,
             "triangle_probability": res.triangle_probability})


@_register(
    "grover",
    "Grover iteration over an unstructured list, tracked in the plane of "
    "the marked and unmarked superpositions.",
    # n = 2^20 takes 1.9 s at one BLAS thread
    {"n": Param("int", 1024, "list size", lo=2, hi=2 ** 20),
     "k": Param("int", 1, "number of marked items", lo=1)},
)
def _grover(p, seed):
    n, k = p["n"], p["k"]
    if k >= n:  # before the k marked items are built
        raise ValueError(f"k={k} marks all n={n} items")
    res = grover.grover_run(n, range(k))
    # worst leakage measured at n = 2^20, k from 1 to n - 1: 9.0e-13
    trace.check("plane leakage", res.leakage, 1e-10)
    # after s steps the state is sin((s + 1/2) a) on the marked and
    # cos((s + 1/2) a) on the unmarked superposition; worst residual
    # measured at n = 2^20, k from 1 to n - 1: 9.1e-13
    a = grover.rotation_angle(n, k)
    angles = (np.arange(len(res.components)) + 0.5) * a
    closed = np.column_stack((np.sin(angles), np.cos(angles)))
    trace.check("amplitude closed form",
                float(np.max(np.abs(res.components - closed))), 1e-10)
    marked, unmarked = res.components.T
    return (["step", "marked_amplitude", "unmarked_amplitude", "success"],
            (range(len(marked)), marked, unmarked,
             [float(c ** 2) for c in marked]),
            {"success": res.success, "queries": res.queries,
             "rotation_angle": a,
             "plane_leakage": res.leakage})


@_register(
    "fixed-point",
    "Recursive phase-pi/3 search: measured failure probability against the "
    "cubing law at every recursion level.",
    {"levels": Param("int", 3, "deepest recursion level",
                     lo=0, hi=_FIXED_POINT_MAX_LEVELS),
     # level 10 takes 0.085 s at n = 8, 0.12 s at n = 1024 and 0.32 s at
     # n = 8192, so the cap keeps the deepest run near the n = 8 budget
     "n": Param("int", 8, "list size", lo=2, hi=1024),
     "k": Param("int", 1, "number of marked items", lo=1),
     "base": Param("str", "identity", "identity or grover-iterate")},
)
def _fixed_point(p, seed):
    if p["k"] >= p["n"]:
        raise ValueError(f"k={p['k']} marks all n={p['n']} items")
    levels = range(p["levels"] + 1)
    runs = grover.fixed_point_levels(p["levels"], p["n"], range(p["k"]),
                                     p["base"])
    f0 = runs[0].failure
    failure = [res.failure for res in runs]
    predicted = [f0 ** (3 ** level) for level in levels]
    # the cubing law (Grover, PRL 95, 150501, 2005), relative where it
    # predicts at least 1e-12 and absolute below.  Rounding moves the
    # unmarked amplitudes by up to 1.1e-11 at level 12, so failure by about
    # 2.2e-11 sqrt(predicted).  Worst residuals over 684 runs of both bases
    # at levels 0 to 12, n from 2 to 1024: 8.0e-6 relative (grover-iterate,
    # n 972, k 731, level 12) and 8.7e-18 absolute (grover-iterate, n 956,
    # k 719, level 12)
    law = np.array(predicted)
    gap = np.abs(failure - law)
    above = law >= 1e-12
    trace.check("cubing law", np.max(gap[above] / law[above], initial=0.0),
                1e-3)
    trace.check("cubing law below 1e-12", np.max(gap[~above], initial=0.0),
                1e-15)
    return (["level", "failure", "predicted_failure", "queries"],
            (levels, failure, predicted, [res.queries for res in runs]),
            {"base_failure": f0})


def _szegedy_chain(p):
    """Row-stochastic unbiased chain on the requested graph, refused before
    the graph is built when it is over the size limit."""
    family, n = p["graph"], p["n"]
    if family not in _VERTEX_COUNTS:
        raise ValueError(f"the Szegedy walk takes a graph family among "
                         f"{_FAMILIES}, not {family!r}")
    count = _VERTEX_COUNTS[family](n)
    if count > SZEGEDY_MAX_VERTICES:
        raise ValueError(f"{family} n={n} has {count} vertices; the "
                         f"Szegedy walk takes at most {SZEGEDY_MAX_VERTICES}")
    g = getattr(graphs, family)(n)
    return szegedy.from_markov_chain(classical.unbiased_chain(g))


@_register(
    "szegedy-spectrum",
    "Eigenvalues of a chain's discriminant against the eigenphases of its "
    "two-register walk.",
    {"graph": Param("str", "cycle", f"graph family: {_FAMILIES}"),
     "n": Param("int", 8, "graph size parameter", lo=1)},
)
def _szegedy_spectrum(p, seed):
    smap = szegedy.spectrum_map(_szegedy_chain(p))
    phases = [abs(math.remainder(2.0 * math.acos(min(1.0, max(-1.0, lam))),
                                 2.0 * math.pi)) for lam in smap.d_values]
    trace.check("phase pairing", smap.pairing_error, 1e-8)
    return (["lambda_D", "phase_W"], (smap.d_values, phases),
            {"pairing_error": smap.pairing_error,
             "residual_count": len(smap.residual_values),
             "invariance_residual": smap.invariance_residual})


@_register(
    "marked-gap",
    "Freezing marked vertices of a symmetric chain: unmarked-block norm "
    "and walk phase gap against their spectral bounds.",
    {"graph": Param("str", "complete", f"graph family: {_FAMILIES}"),
     "n": Param("int", 16, "graph size parameter", lo=1),
     "k_max": Param("int", 4, "largest marked-set size", lo=1)},
)
def _marked_gap(p, seed):
    pmat = _szegedy_chain(p)
    sizes = range(1, p["k_max"] + 1)
    gaps = [szegedy.marked_phase_gap(pmat, range(k)) for k in sizes]
    norm = [gap.chain.norm for gap in gaps]
    bound = [gap.chain.bound for gap in gaps]
    phi0 = [gap.phi0 for gap in gaps]
    phase_bound = [gap.bound for gap in gaps]
    trace.check("spectral bounds", float(np.max(np.maximum(
        np.subtract(norm, bound), np.subtract(phase_bound, phi0)))), 1e-10)
    return (["marked_count", "block_norm", "norm_bound", "phi0",
             "phase_bound"], (sizes, norm, bound, phi0, phase_bound),
            {"invariance_residual": max(gap.invariance_residual
                                        for gap in gaps)})


@_register(
    "subset-find",
    "Bipartite subset walk hunting q-subsets that contain k equal values "
    "of a random function.",
    {"n": Param("int", 10, "domain size", lo=2, hi=14),
     "q": Param("int", 5, "subset size", lo=1),
     "k": Param("int", 2, "how many equal values count as a hit", lo=1),
     "r": Param("int", 25, "range size of the random function", lo=1)},
    needs_seed=True,
)
def _subset_find(p, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(p["r"], size=p["n"])
    f = lambda x: int(values[x])
    prop = lambda pairs: len({v for _, v in pairs}) == 1
    auto = subset.subset_walk_run(p["n"], p["q"], p["k"], f, prop)
    walk = auto.walk
    success, queries, drift = [], [], 0.0
    for state in walk.runs(auto.tau1, 2 * auto.tau2 + 2):
        success.append(walk.success(state))
        queries.append(walk.queries)
        drift = max(drift, abs(float(np.linalg.norm(state)) - 1.0))
    # every step is unitary: worst drift 1.0e-14 at n = 14, over all q and k
    trace.check("norm drift", drift, 5e-12)
    # q queries load the data register, then one per shift, 2 tau1 per round
    trace.check("query ledger q + 2 tau1 t2", max(abs(
        x - p["q"] - 2 * auto.tau1 * t2) for t2, x in enumerate(queries)), 0)
    return (["tau1", "tau2", "success", "queries"],
            ([auto.tau1] * len(success), range(len(success)), success,
             queries),
            {"auto_tau1": auto.tau1, "auto_tau2": auto.tau2,
             "auto_success": auto.success, "auto_queries": auto.queries,
             "best_tau2": auto.best_tau2, "best_success": auto.best_success})


@_register(
    "cost-table",
    "Query exponents of the subset-walk variants: closed-form optimum "
    "against a grid scan over the subset-size exponent.",
    # past k_max = 100 the cost model's powers of N overflow a float; rows
    # x grid is bounded by COST_TABLE_MAX_POINTS
    {"k_max": Param("int", 5, "largest property size", lo=1, hi=100),
     "grid": Param("int", 2001, "grid points for the scan", lo=2, hi=10 ** 6)},
)
def _cost_table(p, seed):
    rows = [(variant, k)
            for variant, k_lo in (("subset", 1), ("clique", 2),
                                  ("recursive_clique", 3))
            for k in range(k_lo, p["k_max"] + 1)]
    if len(rows) * p["grid"] > COST_TABLE_MAX_POINTS:
        raise ValueError(f"{len(rows)} rows of {p['grid']} grid points pass "
                         f"the {COST_TABLE_MAX_POINTS}-point limit")
    mus = np.linspace(0.0, 1.0, p["grid"])
    variants, ks, formula, grid, best = [], [], [], [], []
    for variant, k in rows:
        exponent = subset.cost_model(k, mus, variant).exponent
        variants.append(variant)
        ks.append(k)
        formula.append(subset.optimal_exponent(k, variant))
        best.append(int(np.argmin(exponent)))
        grid.append(float(exponent[best[-1]]))
    return (["variant", "k", "exponent_formula", "exponent_grid",
             "mu_star_grid"], (variants, ks, formula, grid, mus[best]), {})


@_register(
    "ctqw-cycle",
    "Continuous walk wavefront on a long cycle against the squared Bessel "
    "law.",
    # n = 10^5 takes 0.01 s at the default d_max and 0.34 s, mostly the
    # CSV, at d_max = n - 1
    {"n": Param("int", 600, "cycle length", lo=1, hi=10 ** 5),
     "t": Param("float", 20.0, "evolution time"),
     "d_max": Param("int", 60, "largest displacement", lo=0),
     "tolerance": Param("float", 5e-3, "allowed exact-vs-Bessel gap",
                        lo=0.0)},
)
def _ctqw_cycle(p, seed):
    check = ctqw.cycle_bessel_check(p["n"], p["t"], p["d_max"])
    worst = float(np.max(check.difference))
    trace.check("Bessel law", worst, p["tolerance"])
    return (["position", "probability", "bessel_squared", "difference"],
            (range(p["d_max"] + 1), *check), {"worst_difference": worst})


def _time_grid(p, default_t_max):
    """``points`` times from 0 to ``t_max``, or to the default when 0."""
    return np.linspace(0.0, p["t_max"] or default_t_max, p["points"])


@_register(
    "ctqw-hypercube",
    "Corner-to-corner transfer probability on the hypercube: product "
    "closed form against evolution in the Krylov block of the corner.",
    {"dim": Param("int", 6, "hypercube dimension", lo=1, hi=10),
     # the closed-form gap grows with t: every dim passes at 10^4, and dim
     # 10 at 10^5 is off by 1.34e-10 against the 1e-10 budget
     "t_max": Param("float", 0.0, "largest time; 0 means pi",
                    lo=0.0, hi=1e4),
     # 10^5 samples take about 0.7 s, here and in the two experiments below
     "points": Param("int", 201, "time samples", lo=2, hi=10 ** 5)},
)
def _ctqw_hypercube(p, seed):
    dim = p["dim"]
    times = _time_grid(p, math.pi)
    psi0 = np.zeros(2 ** dim)
    psi0[0] = 1.0
    coeffs, q, residual = linalg.evolve_krylov(ctqw.hypercube_apply(dim),
                                               times, psi0)
    dense = np.abs(coeffs @ q[-1]) ** 2
    closed = np.array([ctqw.hypercube_antipode_prob(dim, t) for t in times])
    worst = float(np.max(np.abs(closed - dense)))
    trace.check("closed form", worst, 1e-10)
    return (["t", "closed_form", "dense_probability"],
            (times, closed, dense),
            {"worst_difference": worst, "invariance_residual": residual,
             "krylov_dim": q.shape[1]})


@_register(
    "glued-trees",
    "Traversal of a glued-trees graph through its column-line reduction.",
    {"kind": Param("str", "plain", "plain or cycle"),
     # the line is evolved densely: n = 1000 takes 1.1 s and 215 MB at 201 points
     "n": Param("int", 4, "tree depth", lo=2, hi=1000),
     "t_max": Param("float", 0.0, "largest time; 0 means 4n", lo=0.0),
     "points": Param("int", 201, "time samples", lo=2, hi=10 ** 5)},
)
def _glued_trees(p, seed):
    times = _time_grid(p, 4.0 * p["n"])
    red = ctqw.glued_trees_reduce(p["kind"], p["n"], seed=seed)
    if 16 * p["points"] * red.line.nodes > GLUED_TREES_MAX_BYTES:
        raise ValueError(f"{p['points']} points on {red.line.nodes} nodes pass "
                         f"the {GLUED_TREES_MAX_BYTES}-byte phase table limit")
    psi0 = np.zeros(red.line.nodes)
    psi0[0] = 1.0
    states = linalg.evolve_many(red.line.hamiltonian().matrix, times, psi0)
    if red.equivalence_error is not None:
        trace.check("column reduction", red.equivalence_error, 1e-8)
    exit_prob = np.abs(states[:, -1]) ** 2
    return (["t", "entrance_probability", "exit_probability"],
            (times, np.abs(states[:, 0]) ** 2, exit_prob),
            {"equivalence_error": red.equivalence_error,
             "peak_exit_probability": float(np.max(exit_prob))})


@_register(
    "analog-search",
    "Hamiltonian search on the complete graph: two-level closed form "
    "against evolution in the Krylov block of the uniform state.",
    {"n": Param("int", 64, "number of vertices", lo=2, hi=2 ** 20),
     "marked": Param("int", 1, "number of marked vertices", lo=1),
     # at 10^7, (n, marked) = (3, 2), (64, 1) and (4096, 7) are off by 1.1e-9
     # to 6.9e-9 against the 1e-9 budget; some sizes fail below the cap too,
     # e.g. (10^5, 5 * 10^4) at 10^3 and (65536, 3) at 10^5
     "t_max": Param("float", 0.0, "largest time; 0 means 1.25 periods",
                    lo=0.0, hi=1e6),
     "points": Param("int", 201, "time samples", lo=2, hi=10 ** 5)},
)
def _analog_search(p, seed):
    n, m = p["n"], p["marked"]
    apply = ctqw.complete_search_apply(n, m)
    t_star = math.pi / (2.0 * math.sqrt(m / n))
    times = _time_grid(p, 1.25 * t_star)
    psi0 = np.full(n, 1.0 / math.sqrt(n))
    coeffs, q, residual = linalg.evolve_krylov(apply, times, psi0)
    # the marked vertices are interchangeable, so their rows of q are equal
    dense = m * np.abs(coeffs @ q[0]) ** 2
    closed = np.array([ctqw.analog_search(n, t, m) for t in times])
    worst = float(np.max(np.abs(closed - dense)))
    trace.check("two-level closed form", worst, 1e-9)
    return (["t", "closed_form", "dense_probability"],
            (times, closed, dense),
            {"worst_difference": worst, "certain_success_time": t_star,
             "invariance_residual": residual, "krylov_dim": q.shape[1]})


class _CoinFlips:
    """The ``integers(2)`` that nand's trees and trials call, read in order
    from ``rng.integers(2, size=4096)`` blocks: numpy draws such an int64
    block from the same half-words as as many scalar calls (an int8, uint8
    or bool block draws another stream)."""

    def __init__(self, rng):
        blocks = iter(lambda: rng.integers(2, size=4096).tolist(), None)
        self._next = itertools.chain.from_iterable(blocks).__next__

    def integers(self, k):
        if k != 2:
            raise ValueError(f"nand draws integers(2) only, not integers({k!r})")
        return self._next()


@_register(
    "nand",
    "NAND trees from the adversarial distribution: ratio evaluation "
    "against boolean truth, with randomized classical query costs.",
    {"depth": Param("int", 5, "tree depth", lo=0, hi=16),
     # at depth 5, 10^4 instances take 0.58 s and 10^3 trials 0.13 s;
     # instances x (trials + 1) x 2^depth is bounded by NAND_MAX_LEAVES
     "instances": Param("int", 20, "how many trees to draw",
                        lo=1, hi=10 ** 4),
     "trials": Param("int", 4, "classical evaluations per tree",
                     lo=1, hi=1000)},
    needs_seed=True,
)
def _nand(p, seed):
    if p["instances"] * (p["trials"] + 1) * 2 ** p["depth"] > NAND_MAX_LEAVES:
        raise ValueError(f"{p['instances']} trees of depth {p['depth']} at "
                         f"{p['trials']} trials, each tree counted "
                         f"{p['trials']} + 1 times, pass the "
                         f"{NAND_MAX_LEAVES}-leaf limit")
    truth, bits, roots, costs = [], [], [], []
    rng = _CoinFlips(np.random.default_rng(seed))
    for _ in range(p["instances"]):
        tree = ctqw.hard_nand_instance(p["depth"], rng)
        res = ctqw.nand_eval(tree)
        truth.append(res.oracle_bit)
        bits.append(res.bit)
        roots.append(res.trace[-1])
        costs.append(ctqw.classical_nand_cost(tree, rng, p["trials"]))
    trace.check("trees where the ratio evaluation disagrees with boolean "
                "truth", sum(b != t for b, t in zip(bits, truth)), 0)
    return (["instance", "boolean_value", "ratio_value", "root_ratio",
             "classical_queries"],
            (range(p["instances"]), truth, bits, roots, costs),
            {"mean_classical_queries": float(np.mean(costs)),
             "leaf_count": 2 ** p["depth"]})


@_register(
    "mcmc-partition",
    "Telescoping partition-function estimate for independent spins, "
    "against the exact product form.",
    {"bits": Param("int", 6, "number of spins", lo=1, hi=20),
     # at bits 6, 1000 levels take 0.39 s and 10^4 samples 0.15 s; levels
     # x samples is bounded by MCMC_PARTITION_MAX_SAMPLES
     "levels": Param("int", 8, "temperature levels", lo=1, hi=1000),
     "samples": Param("int", 200, "samples per level", lo=1, hi=10 ** 4),
     "beta_max": Param("float", 2.0, "final inverse temperature")},
    needs_seed=True,
)
def _mcmc_partition(p, seed):
    # ungated: stochastic, from a warm-started chain, not independent Gibbs draws
    if p["levels"] * p["samples"] > MCMC_PARTITION_MAX_SAMPLES:
        raise ValueError(f"{p['levels']} levels of {p['samples']} samples "
                         f"pass the {MCMC_PARTITION_MAX_SAMPLES}-sample limit")
    bits = p["bits"]
    model = classical.EnergyModel.bit_flip(bits, int.bit_count)
    betas = np.linspace(0.0, p["beta_max"], p["levels"] + 1)
    res = classical.telescoping_partition_estimate(
        model, betas, p["samples"], np.random.default_rng(seed))
    z = lambda b: (1.0 + math.exp(-b)) ** bits
    z_exact = z(p["beta_max"])
    return (["level", "beta_low", "beta_high", "level_mean", "ratio_exact"],
            (range(p["levels"]), betas[:-1], betas[1:], res.level_means,
             [z(b2) / z(b1) for b1, b2 in zip(betas, betas[1:])]),
            {"z_estimate": res.z_hat, "z_exact": z_exact,
             "relative_error": abs(res.z_hat - z_exact) / z_exact,
             "alpha_floor": res.alpha_floor})


@_register(
    "annealing",
    "Geometric-cooling annealer on a random energy landscape over "
    "bitstrings.",
    {"bits": Param("int", 8, "number of bits", lo=1, hi=16),
     # at bits 8, 1000 runs take 0.59 s and 2000 inner steps 0.29 s
     "runs": Param("int", 20, "independent annealing runs", lo=1, hi=1000),
     "t0": Param("float", 2.0, "starting temperature"),
     "mu": Param("float", 0.9, "cooling factor"),
     "tmin": Param("float", 0.05, "final temperature"),
     "inner": Param("int", 60, "Metropolis steps per temperature",
                    lo=0, hi=2000)},
    needs_seed=True,
)
def _annealing(p, seed):
    # ungated: stochastic, and where an anneal ends has no exact form to meet
    if not 0 < p["tmin"] <= p["t0"]:
        raise ValueError(f"annealing needs 0 < tmin <= t0, got "
                         f"t0={p['t0']} and tmin={p['tmin']}")
    if not 0 < p["mu"] < 1:
        raise ValueError(f"cooling factor mu={p['mu']} must lie strictly "
                         "between 0 and 1")
    # the temperatures t0 mu^j >= tmin
    levels = math.floor((math.log(p["tmin"]) - math.log(p["t0"]))
                        / math.log(p["mu"])) + 1
    if p["runs"] * levels * (p["inner"] + 2) > ANNEALING_MAX_STEPS:
        raise ValueError(f"{p['runs']} runs of {levels} temperature levels "
                         f"at {p['inner']} steps, each level counted as "
                         f"{p['inner']} + 2, pass the {ANNEALING_MAX_STEPS}"
                         "-step limit")
    bits = p["bits"]
    rng = np.random.default_rng(seed)
    energies = rng.normal(size=2 ** bits)
    model = classical.EnergyModel.bit_flip(bits, energies.tolist().__getitem__)
    states = [classical.simulated_annealing(
        model, p["t0"], p["mu"], p["tmin"], p["inner"], rng)
        for _ in range(p["runs"])]
    final = [float(energies[state]) for state in states]
    true_min = float(energies.min())
    hits = sum(e <= true_min + 1e-12 for e in final)
    return (["run", "final_state", "final_energy"],
            (range(p["runs"]), states, final),
            {"best_energy": min(final), "true_minimum": true_min,
             "hit_fraction": hits / p["runs"]})


@_register(
    "mixing",
    "Classical and time-averaged quantum mixing on an odd cycle.",
    # both at their caps take 10.2 s; t_max = 10^5 alone (n = 9) takes 3.6 s
    {"n": Param("int", 9, "cycle length, odd", lo=3, hi=301),
     "eps": Param("float", 0.05, "distance threshold"),
     "t_max": Param("int", 400, "horizon", lo=1, hi=10 ** 5)},
)
def _mixing(p, seed):
    n = p["n"]
    if n % 2 == 0:
        raise ValueError("even cycles are periodic; use an odd length")
    if p["eps"] <= 0:
        raise ValueError("distance threshold must be positive")
    g = graphs.cycle(n)
    op = coined.CoinedWalkOperator(g, coined.coin("hadamard"))
    psi0 = np.zeros((n, 2), dtype=complex)
    psi0[0] = np.array([1.0, 1j]) / math.sqrt(2.0)
    qres = coined.quantum_mixing_time(op, psi0, p["eps"], p["t_max"])
    start = np.zeros(n)
    start[0] = 1.0
    mres = classical.mixing_time(classical.unbiased_chain(g), start, p["eps"])
    return (["t", "classical_distance", "quantum_average_distance"],
            (range(1, p["t_max"] + 1), mres.distances[1:p["t_max"] + 1],
             qres.distances),
            {"classical_mixing_time": mres.steps,
             "classical_lower_bound": mres.spectral_bound,
             "quantum_mixing_time": qres.steps,
             "quantum_bound": qres.bound})


@_register(
    "hitting",
    "Corner-to-corner hitting on the hypercube: classical first arrival "
    "against one-shot and monitored quantum arrival.",
    {"dim": Param("int", 4, "hypercube dimension", lo=2, hi=8),
     # horizon 10^5 takes 1.0 s at dim 8
     "horizon": Param("int", 100, "largest step count", lo=2, hi=10 ** 5)},
)
def _hitting(p, seed):
    dim = p["dim"]
    if p["horizon"] < dim:
        raise ValueError(f"horizon {p['horizon']} is shorter than the {dim} "
                         "steps to the antipodal corner")
    target = 2 ** dim - 1
    g = graphs.hypercube(dim)
    hres = classical.hitting_time(classical.unbiased_chain(g), 0, target,
                                  p["horizon"])
    op = coined.CoinedWalkOperator(g, coined.coin("grover", d=dim))
    psi0 = np.zeros((2 ** dim, dim))
    psi0[0] = 1.0 / math.sqrt(dim)
    ha = coined.hitting_analysis(op, psi0, target, p["horizon"])
    return (["t", "classical_first_hit", "quantum_one_shot",
             "quantum_first_hit"],
            (range(p["horizon"] + 1), hres.first_hit, ha.one_shot,
             ha.first_hit),
            {"classical_mean_truncated": hres.mean_truncated,
             "classical_tail_mass": hres.tail_mass,
             "quantum_concurrent": ha.concurrent})
