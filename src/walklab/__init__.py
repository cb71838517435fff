"""walklab: simulation and verification workbench for walks on graphs.

Classical random walks, discrete-time quantum walks (coined and scattering),
Szegedy walks built from Markov chains, walk-based search algorithms, and
continuous-time quantum walks on explicit graphs small enough to check every
claim numerically: structured steps, spectra compressed to an invariant
subspace and Krylov evolution, held against dense references.

Submodules
----------
Each is imported on first access (``walklab.grover``, ``from walklab import
grover``), so ``import walklab`` executes none of them.

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

import importlib

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

_SUBMODULES = (*__all__, "experiments", "trace")


def __getattr__(name):
    # PEP 562: ``walklab.<submodule>`` imports that submodule on first access
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
