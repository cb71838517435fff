"""walklab: simulation and verification workbench for walks on graphs.

Classical random walks, discrete-time quantum walks (coined and scattering),
Szegedy walks built from Markov chains, walk-based search algorithms, and
continuous-time quantum walks, all as dense linear algebra on explicit
graphs small enough to check every claim numerically.

Submodules
----------
trace          the numerical gate: check() and ToleranceError
special        Catalan numbers, stationary-phase helper
linalg         Hermitian/unitary eigenwork and Schroedinger evolution
distributions  distances, moments, and entropy of discrete distributions
datafiles      deterministic CSV/JSON output helpers
graphs         graph families, matrices, edge colorings
classical      classical random walks, Markov chain analysis, MCMC
coined         coined discrete-time quantum walks on lines and graphs
scattering     scattering (edge-based) quantum walks and graph search
grover         Grover search, fixed-point search, abstract search
szegedy        two-register quantization of stochastic matrices
subset         subset-finding walk and its query-cost accounting
ctqw           continuous-time quantum walks
experiments    named, reproducible experiment runner (python -m walklab.experiments)
"""

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
    special,
    subset,
    szegedy,
)

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
