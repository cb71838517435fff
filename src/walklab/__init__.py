"""walklab: simulation and verification workbench for walks on graphs.

Classical random walks, discrete-time quantum walks (coined and scattering),
Szegedy walks built from Markov chains, walk-based search algorithms, and
continuous-time quantum walks on explicit graphs small enough to check every
claim numerically: structured steps, spectra compressed to an invariant
subspace and Krylov evolution, held against dense references.

Submodules
----------
``import walklab`` binds every module below but ``experiments`` as a module
that executes on its first attribute access.  So ``import walklab`` executes
none of them, and ``walklab.grover``, ``from walklab import grover`` and
``import walklab.grover`` give one object.  ``experiments`` is imported as any
subpackage is, by ``import walklab.experiments``.

trace          the numerical gate: check() and ToleranceError
special        Catalan numbers and their squared partial sums
linalg         Hermitian/unitary eigenwork and Schroedinger evolution
distributions  distances, moments, and entropy of discrete distributions
datafiles      deterministic CSV/JSON output helpers
graphs         graph families, matrices, edge colorings
classical      classical random walks, Markov chain analysis, MCMC
coined         coined discrete-time quantum walks on lines and graphs
scattering     scattering (edge-based) quantum walks and graph search
grover         Grover search and fixed-point search
szegedy        two-register quantization of stochastic matrices
subset         subset-finding walk and its query-cost accounting
ctqw           continuous-time quantum walks
experiments    named, reproducible experiment runner (python -m walklab.experiments)
"""

import importlib.util
import sys

__all__ = [
    "classical",
    "coined",
    "ctqw",
    "datafiles",
    "distributions",
    "graphs",
    "grover",
    "linalg",
    "scattering",
    "special",
    "subset",
    "szegedy",
]

__version__ = "0.1.0"


def _lazy(name):
    """walklab.<name>, executed on its first attribute access (the
    ``importlib.util.LazyLoader`` recipe)."""
    full = f"{__name__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[full] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


for _name in (*__all__, "trace"):
    globals()[_name] = _lazy(_name)
del _name
