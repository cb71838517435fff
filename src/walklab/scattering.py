"""Edge-state quantum walks and the graph-search algorithms built on them.

The walker lives on directed edges: on each step, everything that arrived
at a vertex scatters into that vertex's outgoing edges through a local
unitary.  A Grover-type vertex transmits 2/d and reflects the rest, a
reflective vertex bounces everything back with a phase, and a custom
degree-2 vertex interpolates between the two with a real reflection
coefficient.

Search on the complete graph and on a star with one extra edge evolves in
a small invariant subspace; both reductions are implemented exactly and
cross-checked against the full edge-space operator.
"""

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from walklab import graphs as _graphs
from walklab import linalg as _linalg

__all__ = [
    "LocalCoin",
    "grover_coin",
    "reflective_coin",
    "custom_coin",
    "SqwOperator",
    "sqw_build",
    "InvariantBasis",
    "reduce_complete_graph",
    "GraphSearchResult",
    "complete_graph_search",
    "StarSearchResult",
    "star_graph_search",
    "star_coins",
    "star_invariant_vectors",
]


@dataclass(frozen=True)
class LocalCoin:
    """Scattering behavior of one vertex.

    kind "grover": transmission 2/d, reflection amplitude 2/d - 1.
    kind "reflective": everything reflected with amplitude e^{i phase}.
    kind "custom": degree-2 vertex with real reflection r0; the
    lowest-numbered neighbor reflects with +r0, the other with -r0, and
    transmission is sqrt(1 - r0^2) both ways.
    """

    kind: str
    phase: float = 0.0
    r0: float = 0.0

    def matrix(self, degree):
        if self.kind == "grover":
            t = 2.0 / degree
            return np.full((degree, degree), t) - np.eye(degree)
        if self.kind == "reflective":
            return cmath.exp(1j * self.phase) * np.eye(degree)
        if self.kind == "custom":
            if degree != 2:
                raise ValueError("custom coins describe degree-2 vertices")
            if not -1.0 <= self.r0 <= 1.0:
                raise ValueError("reflection coefficient must lie in [-1, 1]")
            t0 = math.sqrt(1.0 - self.r0 * self.r0)
            return np.array([[self.r0, t0], [t0, -self.r0]])
        raise ValueError(f"unknown local coin kind {self.kind!r}")


def grover_coin():
    return LocalCoin("grover")


def reflective_coin(phase=0.0):
    return LocalCoin("reflective", phase=phase)


def custom_coin(r0):
    return LocalCoin("custom", r0=r0)


class SqwOperator:
    """Full step unitary on the directed-edge space of a graph, whose
    basis is the arc array ``arcs`` (``graphs.arcs`` order)."""

    def __init__(self, graph, arcs, matrix):
        self.graph = graph
        self.arcs = arcs
        self._matrix = matrix

    @property
    def dim(self):
        return len(self.arcs)

    def step(self, state):
        state = np.asarray(state, dtype=complex)
        if state.shape != (self.dim,):
            raise ValueError("state does not live on the edge basis")
        return self._matrix @ state

    def dense(self):
        return self._matrix.copy()

    def position_distribution(self, state):
        """Probability of finding the walker on each destination vertex."""
        return np.bincount(self.arcs[:, 1], weights=np.abs(state) ** 2,
                           minlength=self.graph.n)


def sqw_build(g, coins):
    """Assemble the step operator from per-vertex scattering coins.

    ``coins`` is either a single LocalCoin used everywhere or a mapping
    from vertex to LocalCoin covering every vertex.  The local map at each
    vertex sends the edges arriving there to the edges leaving it; its
    unitarity is checked to 1e-10.
    """
    arcs = _graphs.arcs(g)
    reverse = _graphs.arc_reversal(arcs)
    bounds = np.searchsorted(arcs[:, 0], np.arange(g.n + 1))
    u = np.zeros((len(arcs), len(arcs)), dtype=complex)
    for l in range(g.n):
        out = slice(bounds[l], bounds[l + 1])
        d = int(out.stop - out.start)
        if d == 0:
            raise ValueError(f"vertex {l} has no edges to scatter into")
        local = coins[l] if not isinstance(coins, LocalCoin) else coins
        m = local.matrix(d)
        if _linalg.unitarity_defect(m) > 1e-10:
            raise ValueError(f"local map at vertex {l} is not unitary")
        # arc (l, w_i) receives m[i, j] times the arc (w_j, l) arriving
        u[out, reverse[out]] = m
    return SqwOperator(g, arcs, u)


@dataclass(frozen=True)
class InvariantBasis:
    """Orthonormal symmetry-adapted vectors with the step operator
    restricted to their span."""

    labels: tuple
    vectors: np.ndarray = field(compare=False)
    reduced: np.ndarray = field(compare=False)


def reduce_complete_graph(n, k, phase):
    """Invariant subspace of search on the complete graph K_n with k
    marked vertices (taken to be 0..k-1).

    Marked vertices reflect with e^{i phase}; the rest carry Grover coins.
    The subspace is spanned by the uniform superpositions over edges
    unmarked-to-marked, marked-to-unmarked, unmarked-to-unmarked and, for
    k >= 2, marked-to-marked; the last one is decoupled and only picks up
    the reflection phase.
    """
    if n < 3:
        raise ValueError("need at least three vertices")
    if not 1 <= k < n:
        raise ValueError("marked count must satisfy 1 <= k < n")
    src, dst = _graphs.arcs(_graphs.complete(n)).T
    out_m, in_m = src < k, dst < k
    classes = {"um": ~out_m & in_m, "mu": out_m & ~in_m,
               "uu": ~out_m & ~in_m, "mm": out_m & in_m}
    labels = ("um", "mu", "uu") if k == 1 else ("um", "mu", "uu", "mm")
    vectors = np.zeros((len(src), len(labels)))
    for j, lab in enumerate(labels):
        size = np.count_nonzero(classes[lab])
        vectors[classes[lab], j] = 1.0 / math.sqrt(size)
    q = -1.0 + 2.0 * k / (n - 1.0)
    s = math.sqrt(1.0 - q * q)
    ph = cmath.exp(1j * phase)
    reduced = np.zeros((len(labels), len(labels)), dtype=complex)
    reduced[1, 0] = ph
    reduced[0, 1] = q
    reduced[2, 1] = s
    reduced[0, 2] = s
    reduced[2, 2] = -q
    if k >= 2:
        reduced[3, 3] = ph
    return InvariantBasis(labels, vectors, reduced)


GraphSearchResult = namedtuple("GraphSearchResult", "success steps best_steps "
                               "best_success labels probabilities successes")


def _uniform_reduced_start(n, k, labels):
    sizes = {"um": k * (n - k), "mu": k * (n - k),
             "uu": (n - k) * (n - k - 1), "mm": k * (k - 1)}
    total = n * (n - 1)
    return np.array([math.sqrt(sizes[lab] / total) for lab in labels],
                    dtype=complex)


def complete_graph_search(n, k, steps="auto"):
    """Search the complete graph by reflecting off the marked vertices.

    Starts from the uniform edge superposition and runs the reduced
    evolution exactly.  Success is the probability that the measured edge
    touches a marked vertex.  With steps="auto" the asymptotic optimum
    round(pi/(2 sqrt 2) sqrt(n/k)) is used; the empirically best step
    count in a +-20% window is reported alongside, with the class labels,
    class probabilities and success at steps 0 to one past the window.
    """
    red = reduce_complete_graph(n, k, math.pi)
    target = math.floor(math.pi / (2.0 * math.sqrt(2.0)) * math.sqrt(n / k)
                        + 0.5) if steps == "auto" else int(steps)
    lo = max(0, int(math.floor(0.8 * target)))
    hi = int(math.ceil(1.2 * target)) + 1
    psi = _uniform_reduced_start(n, k, red.labels)
    probabilities = np.empty((hi + 1, len(red.labels)))
    for m in range(hi + 1):
        probabilities[m] = np.abs(psi) ** 2
        psi = red.reduced @ psi
    touching = [i for i, lab in enumerate(red.labels) if "m" in lab]
    successes = probabilities[:, touching].sum(axis=1)
    best = lo + int(np.argmax(successes[lo:hi]))
    return GraphSearchResult(float(successes[target]), target, best,
                             float(successes[best]), red.labels,
                             probabilities, successes)


StarSearchResult = namedtuple("StarSearchResult", "opt_steps best_steps "
                              "trajectory triangle_probability triangle_series")

# Most steps star_graph_search accepts to its asymptotic optimum, which grows
# as 1/sqrt(1 - r0): at n = 400, r0 = 1 - 1e-10 asks for 2.2 million and the
# largest double below 1 for 2.1 billion.  Every r0 <= 0 up to n = 10^9 stays
# within it (at most 43,018 steps, at r0 = 0).  The dearest request
# accepted, 10^6 steps at n = 400 and r0 = 1 - 4.935e-10, takes 4.6-5.3 s
# and 130 MB RSS as a star-search run with one BLAS thread.
STAR_SEARCH_MAX_STEPS = 10 ** 6


def star_graph_search(n, r0):
    """Find the extra edge hidden between the first two spikes of a star.

    The hub carries the Grover coin, spikes reflect in phase, and the two
    special spikes scatter with the custom degree-2 coin of reflection
    r0.  Evolution stays in a five-dimensional invariant subspace: hub to
    special spikes, back, hub to plain spikes, back, and the extra edge
    itself.  Returns the asymptotic optimal step count, the best count in
    a +-20% window, the reduced trajectory up to the optimum, the
    probability on the three triangle edges at the optimum, and that
    probability at every step up to the optimum.  An optimum past
    ``STAR_SEARCH_MAX_STEPS`` is a ValueError.
    """
    if n < 3:
        raise ValueError("need at least three spikes")
    if r0 == 1.0:
        raise ValueError("r0 = 1 seals the special spikes; the extra edge "
                         "is invisible and the walk never finds it")
    if not -1.0 <= r0 < 1.0:
        raise ValueError("r0 must lie in [-1, 1)")
    delta = math.sqrt(2.0 * (1.0 - r0) / (3.0 - r0))
    opt = math.floor(math.pi / delta * math.sqrt(n / 8.0) + 0.5)
    if opt > STAR_SEARCH_MAX_STEPS:
        raise ValueError(f"r0={r0} at n={n} needs {opt} steps, more than "
                         f"{STAR_SEARCH_MAX_STEPS}")
    t = 2.0 / n
    r = 1.0 - t
    t0 = math.sqrt(1.0 - r0 * r0)
    off = t * math.sqrt(2.0 * (n - 2.0))
    reduced = np.zeros((5, 5))
    reduced[1, 0] = r0
    reduced[4, 0] = t0
    reduced[0, 1] = t - r
    reduced[2, 1] = off
    reduced[3, 2] = 1.0
    reduced[0, 3] = off
    reduced[2, 3] = t * (n - 3.0) - r
    reduced[1, 4] = t0
    reduced[4, 4] = -r0
    psi = np.array([1.0 / math.sqrt(n), -1.0 / math.sqrt(n),
                    math.sqrt((n - 2.0) / (2.0 * n)),
                    -math.sqrt((n - 2.0) / (2.0 * n)), 0.0])
    hi = int(math.ceil(1.2 * opt))
    trajectory = np.empty((hi + 1, 5))
    trajectory[0] = psi
    for m in range(1, hi + 1):
        psi = reduced @ psi
        trajectory[m] = psi
    triangle = (trajectory[:, 0] ** 2 + trajectory[:, 1] ** 2
                + trajectory[:, 4] ** 2)
    lo = max(0, int(math.floor(0.8 * opt)))
    best = lo + int(np.argmax(triangle[lo : hi + 1]))
    return StarSearchResult(opt, best, trajectory[: opt + 1],
                            float(triangle[opt]), triangle[: opt + 1])


def star_coins(n, r0):
    """Coin assignment realizing the star search on the full edge space."""
    coins = {0: grover_coin(), 1: custom_coin(r0), 2: custom_coin(r0)}
    for j in range(3, n + 1):
        coins[j] = reflective_coin(0.0)
    return coins


def star_invariant_vectors(g):
    """The five reduced vectors embedded in the full edge basis of a
    star-with-extra-edge graph."""
    arcs = _graphs.arcs(g)
    keys = arcs @ [g.n, 1]

    def at(u, v):
        return np.searchsorted(keys, np.multiply(u, g.n) + v)

    n = g.n - 1
    r2 = 1.0 / math.sqrt(2.0)
    vecs = np.zeros((len(arcs), 5))
    vecs[at(0, [1, 2]), 0] = r2
    vecs[at([1, 2], 0), 1] = r2
    for j in range(3, n + 1):
        vecs[at(0, j), 2] = vecs[at(j, 0), 3] = 1.0 / math.sqrt(n - 2.0)
    vecs[at([1, 2], [2, 1]), 4] = r2
    return vecs
