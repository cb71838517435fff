"""Named, reproducible experiment runs over the whole package.

Every experiment is registered under a stable name with a typed parameter
schema.  A run writes one CSV data file plus a JSON metadata sidecar and
reports success through its exit status: 0 for a completed run, 2 when the
request itself is invalid (unknown experiment, unknown or malformed
parameter, missing seed), 3 when the run finished but an internal numerical
check failed.  Identical (experiment, parameters, seed) requests produce
byte-identical CSV files.

Use ``python -m walklab.experiments list`` for the catalog and
``python -m walklab.experiments run NAME --param key=value`` to execute one.
"""

import math
import sys
import time
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from walklab import (
    classical,
    coined,
    ctqw,
    datafiles,
    distributions,
    graphs,
    grover,
    linalg,
    scattering,
    subset,
    szegedy,
    trace,
)
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
Experiment = namedtuple("Experiment", "name description schema needs_seed func")
Param = namedtuple("Param", "kind default help")

_COERCE = {"int": int, "float": float, "str": str}
_REGISTRY = {}

# Largest graph the Szegedy experiments accept: the walk lives on n^2 vertex
# pairs, and the compressed spectra still hold n^2 x 2n arrays.
SZEGEDY_MAX_VERTICES = 128

# Vertex count of each one-size graph family, so that an oversized Szegedy
# request is refused before its edge list is built.  The exponential ones
# cap the exponent: 2**64 is already over any limit.
_VERTEX_COUNTS = {
    "line": lambda n: n,
    "cycle": lambda n: n,
    "complete": lambda n: n,
    "star_extra_edge": lambda n: n + 1,
    "hypercube": lambda n: 2 ** min(n, 64),
    "glued_trees": lambda n: 3 * 2 ** (min(n, 64) - 1) - 2,
}


def _register(name, description, schema, needs_seed=False):
    def wrap(func):
        _REGISTRY[name] = Experiment(name, description, schema, needs_seed, func)
        return func
    return wrap


def catalog():
    """The experiment registry, name to Experiment record."""
    return dict(_REGISTRY)


def _outpath(spec, suffix):
    tag = spec.name if spec.seed is None else f"{spec.name}-s{spec.seed}"
    return str(Path(spec.outdir) / f"{tag}.{suffix}")


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
        params.setdefault(key, meta.default)
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
    csv_path = _outpath(spec, "csv")
    try:
        extra = exp.func(params, spec.seed, csv_path)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ToleranceError as err:
        print(f"numerical check failed: {err}", file=sys.stderr)
        return 3
    duration = time.perf_counter() - clock
    meta_path = _outpath(spec, "json")
    try:
        datafiles.write_metadata(
            meta_path, spec.name, params, spec.seed, started, duration,
            [csv_path],
            description=exp.description,
            versions={
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "walklab": _package_version(),
            },
            **extra,
        )
    except ValueError as err:
        print(f"numerical check failed: {err}", file=sys.stderr)
        return 3
    print(f"{spec.name}: wrote {csv_path} and {meta_path} "
          f"in {duration:.2f}s")
    return 0


def _package_version():
    import walklab
    return walklab.__version__


def list_experiments(file=None):
    """Print the catalog with parameter schemas."""
    if file is None:
        file = sys.stdout
    for name in sorted(_REGISTRY):
        exp = _REGISTRY[name]
        seed_note = "  (seed required)" if exp.needs_seed else ""
        print(f"{name}{seed_note}", file=file)
        print(f"    {exp.description}", file=file)
        for key, meta in exp.schema.items():
            print(f"    --param {key}=<{meta.kind}>  "
                  f"default {meta.default!r}: {meta.help}", file=file)
    print(f"\n{len(_REGISTRY)} experiments registered", file=file)


@_register(
    "line-walk",
    "Exact m-step fair walk on the integers with its Gaussian envelope.",
    {"m": Param("int", 100, "number of steps")},
)
def _line_walk(p, seed, csv_path):
    positions, probs = classical.line_walk_binomial(p["m"])
    gauss = classical.line_walk_gaussian(p["m"], positions)
    datafiles.write_csv(csv_path, ["position", "probability", "gaussian_approx"],
                        zip(positions, probs, gauss))
    return {"spread": float(np.sqrt(probs @ positions.astype(float) ** 2))}


@_register(
    "hadamard-line",
    "Position distribution of the coined Hadamard walk after m steps.",
    {"m": Param("int", 100, "number of steps"),
     "q": Param("float", 1.0, "weight of the up coin component"),
     "sigma": Param("float", 0.0, "relative phase of the down component")},
)
def _hadamard_line(p, seed, csv_path):
    op = coined.line_operator(p["m"])
    psi = coined.walk_run(op, coined.line_start(op, p["q"], p["sigma"]), p["m"])
    dist = coined.position_distribution(psi)
    positions = coined.line_positions(op)
    datafiles.write_csv(csv_path, ["position", "probability"],
                        zip(positions, dist))
    stats = distributions.dist_stats(positions, dist)
    return {"mean": stats.mean, "spread": math.sqrt(stats.variance)}


@_register(
    "entropy-series",
    "Position entropy of the classical and Hadamard walks at every step.",
    {"m_max": Param("int", 100, "largest step count")},
)
def _entropy_series(p, seed, csv_path):
    if p["m_max"] < 0:
        raise ValueError("largest step count must be nonnegative")
    op = coined.line_operator(p["m_max"])
    psi = coined.line_start(op)
    rows = []
    for m in range(p["m_max"] + 1):
        _, probs = classical.line_walk_binomial(m)
        s_cl = distributions.entropy(probs)
        s_q = distributions.entropy(coined.position_distribution(psi))
        asym = (1.0 + math.log(math.pi * m / 2.0)) / 2.0 if m else float("nan")
        rows.append((m, s_cl, s_q, asym, math.log(m + 1.0)))
        if m < p["m_max"]:
            psi = op.step(psi)
    datafiles.write_csv(csv_path, ["m", "classical_entropy", "quantum_entropy",
                                   "classical_asymptote", "uniform_bound"], rows)
    return {}


@_register(
    "decoherence-sweep",
    "Interpolation from ballistic to diffusive spreading as measurement "
    "interrupts the Hadamard walk.",
    {"m": Param("int", 50, "number of steps"),
     "points": Param("int", 11, "how many unitarity rates to sample"),
     "projectors": Param("str", "both", "coin, position, both, or edge-phase")},
)
def _decoherence_sweep(p, seed, csv_path):
    if p["points"] < 1:
        raise ValueError("need at least one unitarity rate")
    m = p["m"]
    op = coined.line_operator(m)
    rho0 = coined.DensityState.from_pure(coined.line_start(op))
    positions = coined.line_positions(op)
    bpos, bprobs = classical.line_walk_binomial(m)
    binom = np.zeros(op.n)
    binom[op.n // 2 + bpos] = bprobs
    rows = []
    for rate in np.linspace(0.0, 1.0, p["points"]):
        out = coined.decohere_evolve(op, float(rate), p["projectors"], rho0, m)
        dist = coined.position_distribution(out)
        stats = distributions.dist_stats(positions, dist)
        rows.append((float(rate), math.sqrt(max(stats.variance, 0.0)),
                     distributions.tvd(dist, binom)))
    datafiles.write_csv(csv_path, ["unitarity", "spread", "tvd_from_binomial"],
                        rows)
    return {"steps": m}


@_register(
    "absorbing-boundary",
    "Hadamard walker beside an absorbing wall: per-step and cumulative "
    "absorption, whose limit is 2/pi.",
    {"m_max": Param("int", 4000, "number of steps")},
)
def _absorbing_boundary(p, seed, csv_path):
    res = coined.absorbing_line_quantum(p["m_max"])
    steps = np.arange(p["m_max"] + 1)
    datafiles.write_csv(csv_path, ["step", "absorbed", "cumulative"],
                        zip(steps, res.per_step, res.cumulative))
    return {"final_cumulative": float(res.cumulative[-1]),
            "limit_two_over_pi": 2.0 / math.pi,
            "classical_limit": classical.absorbing_hit_prob_line(0.5)}


@_register(
    "complete-graph-search",
    "Edge walk searching k marked vertices of the complete graph inside "
    "its invariant subspace.",
    {"n": Param("int", 100, "number of vertices"),
     "k": Param("int", 1, "number of marked vertices")},
)
def _complete_graph_search(p, seed, csv_path):
    n, k = p["n"], p["k"]
    summary = scattering.complete_graph_search(n, k)
    rows = [(step, *probs, success) for step, (probs, success)
            in enumerate(zip(summary.probabilities, summary.successes))]
    datafiles.write_csv(csv_path,
                        ["step"] + [f"prob_{lab}" for lab in summary.labels]
                        + ["success"], rows)
    return {"opt_steps": summary.steps, "best_steps": summary.best_steps,
            "success_at_opt": summary.success}


@_register(
    "star-search",
    "Edge walk on a star with one hidden extra edge, tracked inside its "
    "five-dimensional invariant subspace.",
    {"n": Param("int", 400, "number of spikes"),
     "r0": Param("float", 0.0, "reflection coefficient of the special spikes")},
)
def _star_search(p, seed, csv_path):
    res = scattering.star_graph_search(p["n"], p["r0"])
    rows = [(step, *c, triangle) for step, (c, triangle)
            in enumerate(zip(res.trajectory, res.triangle_series))]
    datafiles.write_csv(csv_path,
                        ["step", "hub_to_special", "special_to_hub",
                         "hub_to_plain", "plain_to_hub", "extra_edge",
                         "triangle_probability"], rows)
    return {"opt_steps": res.opt_steps, "best_steps": res.best_steps,
            "triangle_probability": res.triangle_probability}


@_register(
    "grover",
    "Grover iteration over an unstructured list, tracked in the plane of "
    "the marked and unmarked superpositions.",
    {"n": Param("int", 1024, "list size"),
     "k": Param("int", 1, "number of marked items")},
)
def _grover(p, seed, csv_path):
    n, k = p["n"], p["k"]
    res = grover.grover_run(n, range(k))
    traj = grover.grover_trajectory(n, range(k), res.queries)
    rows = [(step, c[0], c[1], float(c[0] ** 2))
            for step, c in enumerate(traj.components)]
    datafiles.write_csv(csv_path, ["step", "marked_amplitude",
                                   "unmarked_amplitude", "success"], rows)
    return {"success": res.success, "queries": res.queries,
            "rotation_angle": traj.theta, "plane_leakage": traj.leakage}


@_register(
    "fixed-point",
    "Recursive phase-pi/3 search: measured failure probability against the "
    "cubing law at every recursion level.",
    {"levels": Param("int", 3, "deepest recursion level"),
     "n": Param("int", 8, "list size"),
     "k": Param("int", 1, "number of marked items"),
     "base": Param("str", "identity", "identity or grover base algorithm")},
)
def _fixed_point(p, seed, csv_path):
    if p["levels"] < 0:
        raise ValueError("recursion level must be nonnegative")
    rows = []
    f0 = None
    for level in range(p["levels"] + 1):
        res = grover.fixed_point_run(level, p["n"], range(p["k"]), p["base"])
        if f0 is None:
            f0 = res.failure
        rows.append((level, res.failure, f0 ** (3 ** level), res.queries))
    datafiles.write_csv(csv_path, ["level", "failure", "predicted_failure",
                                   "queries"], rows)
    return {"base_failure": f0}


def _szegedy_chain(p):
    """Row-stochastic unbiased chain on the requested graph, refused before
    the graph is built when it is over the size limit."""
    family, n = p["graph"], p["n"]
    if family not in _VERTEX_COUNTS:
        raise ValueError(f"the Szegedy walk takes a graph family among "
                         f"{', '.join(_VERTEX_COUNTS)}, not {family!r}")
    count = _VERTEX_COUNTS[family](n)
    if count > SZEGEDY_MAX_VERTICES:
        raise ValueError(f"{family} n={n} has {count} vertices; the "
                         f"Szegedy walk takes at most {SZEGEDY_MAX_VERTICES}")
    g = graphs.build_graph(family, n)
    return szegedy.from_markov_chain(classical.unbiased_chain(g))


@_register(
    "szegedy-spectrum",
    "Eigenvalues of a chain's discriminant against the eigenphases of its "
    "two-register walk.",
    {"graph": Param("str", "cycle", "cycle, complete, hypercube, or line"),
     "n": Param("int", 8, "graph size parameter")},
)
def _szegedy_spectrum(p, seed, csv_path):
    smap = szegedy.spectrum_map(_szegedy_chain(p))
    rows = []
    for lam in smap.d_values:
        theta = 2.0 * math.acos(min(1.0, max(-1.0, float(lam))))
        rows.append((float(lam), abs(math.remainder(theta, 2.0 * math.pi))))
    datafiles.write_csv(csv_path, ["lambda_D", "phase_W"], rows)
    trace.check("phase pairing", smap.pairing_error, 1e-8)
    return {"pairing_error": smap.pairing_error,
            "residual_count": len(smap.residual_values),
            "invariance_residual": smap.invariance_residual}


@_register(
    "marked-gap",
    "Freezing marked vertices of a symmetric chain: unmarked-block norm "
    "and walk phase gap against their spectral bounds.",
    {"graph": Param("str", "complete", "cycle, complete, hypercube, or line"),
     "n": Param("int", 16, "graph size parameter"),
     "k_max": Param("int", 4, "largest marked-set size")},
)
def _marked_gap(p, seed, csv_path):
    if p["k_max"] < 1:
        raise ValueError("need at least one marked vertex")
    pmat = _szegedy_chain(p)
    rows = []
    worst = None
    invariance = 0.0
    for k in range(1, p["k_max"] + 1):
        mc = szegedy.marked_modify(pmat, range(k))
        gap = szegedy.marked_phase_gap(pmat, range(k))
        invariance = max(invariance, gap.invariance_residual)
        rows.append((k, mc.norm, mc.bound, gap.phi0, gap.bound))
        if not (mc.norm <= mc.bound + 1e-10
                and gap.phi0 >= gap.bound - 1e-10):
            worst = k
    datafiles.write_csv(csv_path, ["marked_count", "block_norm", "norm_bound",
                                   "phi0", "phase_bound"], rows)
    if worst is not None:
        raise ToleranceError(f"spectral bound violated at {worst} marked")
    return {"invariance_residual": invariance}


@_register(
    "subset-find",
    "Bipartite subset walk hunting q-subsets that contain k equal values "
    "of a random function.",
    {"n": Param("int", 10, "domain size"),
     "q": Param("int", 5, "subset size"),
     "k": Param("int", 2, "how many equal values count as a hit"),
     "r": Param("int", 25, "range size of the random function")},
    needs_seed=True,
)
def _subset_find(p, seed, csv_path):
    if p["r"] < 1:
        raise ValueError("range size must be positive")
    rng = np.random.default_rng(seed)
    values = rng.integers(p["r"], size=p["n"])
    f = lambda x: int(values[x])
    prop = lambda pairs: len({v for _, v in pairs}) == 1
    auto = subset.subset_walk_run(p["n"], p["q"], p["k"], f, prop)
    walk = subset.SubsetWalk(p["n"], p["q"], f, prop, p["k"])
    rows = []
    for t2 in range(2 * auto.tau2 + 3):
        state = walk.run(auto.tau1, t2)
        rows.append((auto.tau1, t2, walk.success(state), walk.queries))
    datafiles.write_csv(csv_path, ["tau1", "tau2", "success", "queries"], rows)
    return {"auto_tau1": auto.tau1, "auto_tau2": auto.tau2,
            "auto_success": auto.success, "auto_queries": auto.queries,
            "best_tau2": auto.best_tau2, "best_success": auto.best_success}


@_register(
    "cost-table",
    "Query exponents of the subset-walk variants: closed-form optimum "
    "against a grid scan over the subset-size exponent.",
    {"k_max": Param("int", 5, "largest property size"),
     "grid": Param("int", 2001, "grid points for the scan")},
)
def _cost_table(p, seed, csv_path):
    if p["grid"] < 2 or p["k_max"] < 1:
        raise ValueError("need k_max >= 1 and a grid of at least two points")
    mus = np.linspace(0.0, 1.0, p["grid"])
    rows = []
    for variant, k_lo in (("subset", 1), ("clique", 2), ("recursive_clique", 3)):
        for k in range(k_lo, p["k_max"] + 1):
            grid_vals = subset.cost_model(k, mus, variant).exponent
            best = int(np.argmin(grid_vals))
            rows.append((variant, k, subset.optimal_exponent(k, variant),
                         float(grid_vals[best]), float(mus[best])))
    datafiles.write_csv(csv_path, ["variant", "k", "exponent_formula",
                                   "exponent_grid", "mu_star_grid"], rows)
    return {}


@_register(
    "ctqw-cycle",
    "Continuous walk wavefront on a long cycle against the squared Bessel "
    "law.",
    {"n": Param("int", 600, "cycle length"),
     "t": Param("float", 20.0, "evolution time"),
     "d_max": Param("int", 60, "largest displacement"),
     "tolerance": Param("float", 5e-3, "allowed exact-vs-Bessel gap")},
)
def _ctqw_cycle(p, seed, csv_path):
    if p["d_max"] < 0:
        raise ValueError("largest displacement must be nonnegative")
    rows = []
    worst = 0.0
    for d in range(p["d_max"] + 1):
        check = ctqw.cycle_bessel_check(p["n"], 0, d, p["t"])
        worst = max(worst, check.difference)
        rows.append((d, check.exact, check.approx, check.difference))
    datafiles.write_csv(csv_path, ["position", "probability",
                                   "bessel_squared", "difference"], rows)
    trace.check("Bessel law", worst, p["tolerance"])
    return {"worst_difference": worst}


@_register(
    "ctqw-hypercube",
    "Corner-to-corner transfer probability on the hypercube: product "
    "closed form against dense evolution.",
    {"dim": Param("int", 6, "hypercube dimension, at most 10"),
     "t_max": Param("float", 0.0, "largest time; 0 means pi"),
     "points": Param("int", 201, "time samples")},
)
def _ctqw_hypercube(p, seed, csv_path):
    dim = p["dim"]
    if not 1 <= dim <= 10:
        raise ValueError("dimension must be between 1 and 10")
    if p["points"] < 2:
        raise ValueError("need at least two time samples")
    t_max = p["t_max"] if p["t_max"] > 0 else math.pi
    h = ctqw.graph_hamiltonian(graphs.hypercube(dim), "negative-adjacency")
    times = np.linspace(0.0, t_max, p["points"])
    psi0 = np.zeros(2 ** dim)
    psi0[0] = 1.0
    dense = np.abs(linalg.evolve_many(h.matrix, times, psi0)[:, -1]) ** 2
    closed = np.array([ctqw.hypercube_antipode_prob(dim, t) for t in times])
    datafiles.write_csv(csv_path, ["t", "closed_form", "dense_probability"],
                        zip(times, closed, dense))
    worst = float(np.max(np.abs(closed - dense)))
    trace.check("closed form", worst, 1e-10)
    return {"worst_difference": worst}


@_register(
    "glued-trees",
    "Traversal of a glued-trees graph through its column-line reduction.",
    {"kind": Param("str", "plain", "plain or cycle"),
     "n": Param("int", 4, "tree depth"),
     "t_max": Param("float", 0.0, "largest time; 0 means 4n"),
     "points": Param("int", 201, "time samples")},
)
def _glued_trees(p, seed, csv_path):
    if p["points"] < 2:
        raise ValueError("need at least two time samples")
    red = ctqw.glued_trees_reduce(p["kind"], p["n"], seed=seed)
    t_max = p["t_max"] if p["t_max"] > 0 else 4.0 * p["n"]
    times = np.linspace(0.0, t_max, p["points"])
    psi0 = np.eye(red.line.nodes)[0]
    states = linalg.evolve_many(red.line.hamiltonian().matrix, times, psi0)
    datafiles.write_csv(csv_path, ["t", "entrance_probability",
                                   "exit_probability"],
                        zip(times, np.abs(states[:, 0]) ** 2,
                            np.abs(states[:, -1]) ** 2))
    if red.equivalence_error is not None:
        trace.check("column reduction", red.equivalence_error, 1e-8)
    return {"equivalence_error": red.equivalence_error,
            "peak_exit_probability": float(np.max(np.abs(states[:, -1]) ** 2))}


@_register(
    "analog-search",
    "Hamiltonian search on the complete graph: two-level closed form "
    "against dense evolution.",
    {"n": Param("int", 64, "number of vertices"),
     "marked": Param("int", 1, "number of marked vertices"),
     "t_max": Param("float", 0.0, "largest time; 0 means 1.25 periods"),
     "points": Param("int", 201, "time samples")},
)
def _analog_search(p, seed, csv_path):
    n, m = p["n"], p["marked"]
    if p["points"] < 2:
        raise ValueError("need at least two time samples")
    h = ctqw.search_hamiltonian(graphs.complete(n), 1.0 / n, range(m))
    t_star = math.pi / (2.0 * math.sqrt(m / n))
    t_max = p["t_max"] if p["t_max"] > 0 else 1.25 * t_star
    times = np.linspace(0.0, t_max, p["points"])
    psi0 = np.full(n, 1.0 / math.sqrt(n))
    states = linalg.evolve_many(h.matrix, times, psi0)
    dense = (np.abs(states[:, :m]) ** 2).sum(axis=1)
    closed = np.array([ctqw.analog_search(n, t, m) for t in times])
    datafiles.write_csv(csv_path, ["t", "closed_form", "dense_probability"],
                        zip(times, closed, dense))
    worst = float(np.max(np.abs(closed - dense)))
    trace.check("two-level closed form", worst, 1e-9)
    return {"worst_difference": worst, "certain_success_time": t_star}


@_register(
    "nand",
    "NAND trees from the adversarial distribution: ratio evaluation "
    "against boolean truth, with randomized classical query costs.",
    {"depth": Param("int", 5, "tree depth, at most 16"),
     "instances": Param("int", 20, "how many trees to draw"),
     "trials": Param("int", 4, "classical evaluations per tree")},
    needs_seed=True,
)
def _nand(p, seed, csv_path):
    if not 0 <= p["depth"] <= 16:
        raise ValueError("tree depth must be between 0 and 16")
    if p["instances"] < 1 or p["trials"] < 1:
        raise ValueError("need at least one instance and one trial")
    rng = np.random.default_rng(seed)
    rows = []
    costs = []
    for i in range(p["instances"]):
        tree = ctqw.hard_nand_instance(p["depth"], rng)
        res = ctqw.nand_eval(tree)
        if res.bit != res.oracle_bit:
            raise ToleranceError(
                f"ratio evaluation disagreed with boolean truth on tree {i}")
        cost = ctqw.classical_nand_cost(tree, rng, p["trials"])
        costs.append(cost)
        rows.append((i, res.oracle_bit, res.bit, res.trace[-1], cost))
    datafiles.write_csv(csv_path, ["instance", "boolean_value", "ratio_value",
                                   "root_ratio", "classical_queries"], rows)
    return {"mean_classical_queries": float(np.mean(costs)),
            "leaf_count": 2 ** p["depth"]}


@_register(
    "mcmc-partition",
    "Telescoping partition-function estimate for independent spins, "
    "against the exact product form.",
    {"bits": Param("int", 6, "number of spins"),
     "levels": Param("int", 8, "temperature levels"),
     "samples": Param("int", 200, "samples per level"),
     "beta_max": Param("float", 2.0, "final inverse temperature")},
    needs_seed=True,
)
def _mcmc_partition(p, seed, csv_path):
    bits = p["bits"]
    if bits < 1 or bits > 20:
        raise ValueError("spin count must be between 1 and 20")
    model = classical.EnergyModel(
        2 ** bits,
        lambda s: float(bin(s).count("1")),
        lambda s, rng: s ^ (1 << int(rng.integers(bits))),
    )
    betas = np.linspace(0.0, p["beta_max"], p["levels"] + 1)
    res = classical.telescoping_partition_estimate(
        model, betas, p["samples"], np.random.default_rng(seed))
    z = lambda b: (1.0 + math.exp(-b)) ** bits
    rows = []
    for i, y in enumerate(res.level_means):
        b1, b2 = float(betas[i]), float(betas[i + 1])
        rows.append((i, b1, b2, y, z(b2) / z(b1)))
    datafiles.write_csv(csv_path, ["level", "beta_low", "beta_high",
                                   "level_mean", "ratio_exact"], rows)
    z_exact = z(p["beta_max"])
    return {"z_estimate": res.z_hat, "z_exact": z_exact,
            "relative_error": abs(res.z_hat - z_exact) / z_exact,
            "alpha_floor": res.alpha_floor}


@_register(
    "annealing",
    "Geometric-cooling annealer on a random energy landscape over "
    "bitstrings.",
    {"bits": Param("int", 8, "number of bits"),
     "runs": Param("int", 20, "independent annealing runs"),
     "t0": Param("float", 2.0, "starting temperature"),
     "mu": Param("float", 0.9, "cooling factor"),
     "tmin": Param("float", 0.05, "final temperature"),
     "inner": Param("int", 60, "Metropolis steps per temperature")},
    needs_seed=True,
)
def _annealing(p, seed, csv_path):
    bits = p["bits"]
    if bits < 1 or bits > 16:
        raise ValueError("bit count must be between 1 and 16")
    if p["runs"] < 1:
        raise ValueError("need at least one annealing run")
    rng = np.random.default_rng(seed)
    energies = rng.normal(size=2 ** bits)
    model = classical.EnergyModel(
        2 ** bits,
        lambda s: float(energies[s]),
        lambda s, r: s ^ (1 << int(r.integers(bits))),
    )
    rows = []
    best = math.inf
    hits = 0
    true_min = float(energies.min())
    for run_idx in range(p["runs"]):
        state = classical.simulated_annealing(
            model, p["t0"], p["mu"], p["tmin"], p["inner"], rng)
        e = float(energies[state])
        best = min(best, e)
        hits += e <= true_min + 1e-12
        rows.append((run_idx, state, e))
    datafiles.write_csv(csv_path, ["run", "final_state", "final_energy"], rows)
    return {"best_energy": best, "true_minimum": true_min,
            "hit_fraction": hits / p["runs"]}


@_register(
    "mixing",
    "Classical and time-averaged quantum mixing on an odd cycle.",
    {"n": Param("int", 9, "cycle length, odd"),
     "eps": Param("float", 0.05, "distance threshold"),
     "t_max": Param("int", 400, "horizon")},
)
def _mixing(p, seed, csv_path):
    n = p["n"]
    if n % 2 == 0:
        raise ValueError("even cycles are periodic; use an odd length")
    if p["eps"] <= 0:
        raise ValueError("distance threshold must be positive")
    chain = classical.unbiased_chain(graphs.cycle(n))
    p0 = np.eye(n)[0]
    pi_cl = np.full(n, 1.0 / n)
    op = coined.CoinedWalkOperator(graphs.cycle(n), coined.coin("hadamard"))
    psi0 = np.zeros((n, 2), dtype=complex)
    psi0[0] = np.array([1.0, 1j]) / math.sqrt(2.0)
    qres = coined.quantum_mixing_time(op, psi0, p["eps"], p["t_max"])
    dist_cl = p0
    rows = []
    for t, quantum in enumerate(qres.distances, start=1):
        dist_cl = chain.matrix @ dist_cl
        rows.append((t, distributions.tvd(dist_cl, pi_cl), quantum))
    datafiles.write_csv(csv_path, ["t", "classical_distance",
                                   "quantum_average_distance"], rows)
    mres = classical.mixing_time(chain, p0, p["eps"])
    return {"classical_mixing_time": mres[0],
            "classical_lower_bound": mres[1],
            "quantum_mixing_time": qres.steps,
            "quantum_bound": qres.bound}


@_register(
    "hitting",
    "Corner-to-corner hitting on the hypercube: classical first arrival "
    "against one-shot and monitored quantum arrival.",
    {"dim": Param("int", 4, "hypercube dimension"),
     "horizon": Param("int", 100, "largest step count")},
)
def _hitting(p, seed, csv_path):
    dim = p["dim"]
    if not 2 <= dim <= 8:
        raise ValueError("dimension must be between 2 and 8")
    if p["horizon"] < dim:
        raise ValueError(f"horizon {p['horizon']} is shorter than the {dim} "
                         "steps to the antipodal corner")
    target = 2 ** dim - 1
    chain = classical.unbiased_chain(graphs.hypercube(dim))
    f = classical.first_hit_distribution(chain, 0, target, p["horizon"])
    op = coined.CoinedWalkOperator(graphs.hypercube(dim),
                                   coined.coin("grover", d=dim))
    psi0 = np.zeros((2 ** dim, dim), dtype=complex)
    psi0[0] = 1.0 / math.sqrt(dim)
    ha = coined.hitting_analysis(op, psi0, target, p["horizon"])
    rows = [(t, f[t], ha.one_shot[t], ha.first_hit[t])
            for t in range(p["horizon"] + 1)]
    datafiles.write_csv(csv_path, ["t", "classical_first_hit",
                                   "quantum_one_shot", "quantum_first_hit"],
                        rows)
    hres = classical.hitting_time(chain, 0, target, p["horizon"])
    return {"classical_mean_truncated": hres.mean_truncated,
            "classical_tail_mass": hres.tail_mass,
            "quantum_concurrent": ha.concurrent}
