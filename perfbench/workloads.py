"""The benchmark's workloads: fixed lists of registered experiments.

Each entry is ``(label, experiment, params)``.  Labels are unique within a
workload and name the run's output directory and reference file.  Params are
passed as strings, exactly as ``python -m walklab.experiments run --param``
would pass them.  Sizes are fixed on purpose: a workload is only comparable
across commits while it does the same work.
"""

WHY = {
    "defaults": "all 22 experiments once at their schema defaults: the CLI "
                "and tier-1 path, where validation and fixed scans dominate",
    "spectral": "dense-decomposition runs at scaled size: Schur and eigh in "
                "linalg and Szegedy's n^2 x n^2 walk carry time and memory",
    "stepping": "structured evolution and sampling at scaled size with no "
                "dense decomposition: coined steps, subsets, Metropolis, Bessel",
}

_DEFAULT_NAMES = (
    "line-walk", "hadamard-line", "entropy-series", "decoherence-sweep",
    "absorbing-boundary", "complete-graph-search", "star-search", "grover",
    "fixed-point", "szegedy-spectrum", "marked-gap", "subset-find",
    "cost-table", "ctqw-cycle", "ctqw-hypercube", "glued-trees",
    "analog-search", "nand", "mcmc-partition", "annealing", "mixing",
    "hitting",
)

WORKLOADS = {
    "defaults": [(name, name, {}) for name in _DEFAULT_NAMES],
    "spectral": [
        ("szegedy-spectrum.complete32", "szegedy-spectrum",
         {"graph": "complete", "n": "32"}),
        ("szegedy-spectrum.cycle32", "szegedy-spectrum",
         {"graph": "cycle", "n": "32"}),
        ("szegedy-spectrum.hypercube5", "szegedy-spectrum",
         {"graph": "hypercube", "n": "5"}),
        ("marked-gap.complete24", "marked-gap",
         {"graph": "complete", "n": "24", "k_max": "2"}),
        ("marked-gap.hypercube4", "marked-gap",
         {"graph": "hypercube", "n": "4", "k_max": "4"}),
        ("ctqw-hypercube.dim10", "ctqw-hypercube", {"dim": "10"}),
        ("analog-search.n1024", "analog-search", {"n": "1024"}),
        ("glued-trees.cycle6", "glued-trees", {"kind": "cycle", "n": "6"}),
    ],
    "stepping": [
        ("hadamard-line.m2000", "hadamard-line", {"m": "2000"}),
        ("absorbing-boundary.m8000", "absorbing-boundary", {"m_max": "8000"}),
        ("entropy-series.m400", "entropy-series", {"m_max": "400"}),
        ("hitting.dim8", "hitting", {"dim": "8", "horizon": "2000"}),
        ("grover.n65536", "grover", {"n": "65536"}),
        ("complete-graph-search.n400", "complete-graph-search", {"n": "400"}),
        ("star-search.n100000", "star-search", {"n": "100000"}),
        ("fixed-point.levels8", "fixed-point", {"levels": "8", "n": "64"}),
        ("subset-find.n12", "subset-find", {"n": "12", "q": "6"}),
        ("ctqw-cycle.n4000", "ctqw-cycle",
         {"n": "4000", "t": "400", "d_max": "400"}),
        ("line-walk.m1000", "line-walk", {"m": "1000"}),
        ("cost-table.grid20001", "cost-table", {"grid": "20001"}),
        ("nand.depth9", "nand", {"depth": "9"}),
        ("annealing.bits12", "annealing", {"bits": "12"}),
        ("mcmc-partition.bits10", "mcmc-partition",
         {"bits": "10", "samples": "2000"}),
    ],
}


def run_seed(workload_seed, index):
    """Seed handed to the index-th run of a workload, when it is stochastic."""
    return 1000 * workload_seed + index
