"""Continuous-time quantum walks.

A single Hermitian matrix, or its structured action, drives everything
here: Schrodinger evolution under a graph Hamiltonian, its time-averaged
and limiting distributions, closed-form special cases (cycle wavefronts,
hypercube traversal, the analog version of Grover search), symmetry
reductions of the glued-trees graphs to weighted lines, and the NAND-tree
ratio recursion.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import graphs as _graphs
from . import linalg as _linalg

__all__ = [
    "Hamiltonian",
    "graph_hamiltonian",
    "search_hamiltonian",
    "hypercube_apply",
    "complete_search_apply",
    "ctqw_run",
    "BesselCheck",
    "cycle_bessel_check",
    "ctqw_limiting",
    "time_averaged_distribution",
    "hypercube_antipode_prob",
    "WeightedLine",
    "GluedTreesReduction",
    "glued_trees_reduce",
    "analog_search",
    "NandResult",
    "nand_eval",
    "hard_nand_instance",
    "classical_nand_cost",
]

SYMMETRY_TOL = 1e-12
NAND_SENTINEL = 1e12


@dataclass(frozen=True)
class Hamiltonian:
    """Real symmetric generator of a continuous walk."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Hamiltonian must be square")
        if _linalg.hermiticity_defect(m) > SYMMETRY_TOL:
            raise ValueError("Hamiltonian must be symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]


def graph_hamiltonian(g, kind="adjacency"):
    """Adjacency, laplacian, or negative-adjacency Hamiltonian of a graph."""
    if kind == "adjacency":
        m = _graphs.adjacency(g)
    elif kind == "negative-adjacency":
        m = -_graphs.adjacency(g)
    elif kind == "laplacian":
        m = _graphs.laplacian(g)
    else:
        raise ValueError(f"unknown Hamiltonian kind {kind!r}")
    return Hamiltonian(m)


def search_hamiltonian(g, gamma, marked):
    """-gamma A minus a unit energy well on each marked vertex.

    gamma is a free knob; on the complete graph the choice gamma = 1/N
    turns this into the analog Grover generator up to a global energy
    shift, which is what analog_search evaluates in closed form.
    """
    marked = sorted(set(marked))
    if not marked:
        raise ValueError("no marked vertices")
    if marked[0] < 0 or marked[-1] >= g.n:
        raise ValueError("marked vertex out of range")
    m = -gamma * _graphs.adjacency(g)
    for w in marked:
        m[w, w] -= 1.0
    return Hamiltonian(m)


def hypercube_apply(dim):
    """-A of the dim-cube as a function of v, whose rows are vertices
    numbered by their bits as in ``graphs.hypercube``: -sum_b v[x ^ 2^b]."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    flips = np.arange(1 << dim) ^ (1 << np.arange(dim))[:, None]
    return lambda v: -sum(v[f] for f in flips)


def complete_search_apply(n, marked):
    """``search_hamiltonian(complete(n), 1/n, range(marked))`` as an O(n)
    function of v: -(sum(v) - v)/n minus the well on the marked rows."""
    analog_search(n, 0.0, marked)  # the same checks on n and marked

    def apply(v):
        out = (v - v.sum(axis=0)) / n
        out[:marked] -= v[:marked]
        return out
    return apply


def ctqw_run(h, t, psi0):
    """State exp(-i H t) psi0."""
    return _linalg.evolve_many(h.matrix, [t], psi0)[0]


BesselCheck = namedtuple("BesselCheck", "exact approx difference")


def cycle_bessel_check(n, x, y, t):
    """Compare the exact cycle transition probability with |J_d(2t)|^2.

    The exact value comes from the plane-wave eigenbasis of the negative
    adjacency matrix; the comparison only makes sense while the
    wavefront, which travels at speed 2, cannot feel the wrap-around, so
    n >= 8t + |y - x| is required.
    """
    if not 0 <= x < n or not 0 <= y < n:
        raise ValueError("vertices out of range")
    d = y - x
    if n < 8 * t + abs(d):
        raise ValueError("wrap-around regime: cycle too short for this time")
    k = np.arange(n)
    p = 2.0 * math.pi * k / n
    amp = np.mean(np.exp(2j * t * np.cos(p) + 1j * p * d))
    exact = float(abs(amp) ** 2)
    # Imported here so that importing the package does not load scipy.special.
    from scipy.special import jv

    approx = float(jv(abs(d), 2.0 * t)) ** 2
    return BesselCheck(exact, approx, abs(exact - approx))


def ctqw_limiting(h, start):
    """Limiting time-averaged distribution from the given start vertex.

    Cross terms between distinct energies average to zero, so only
    amplitudes within each degenerate energy level survive:
    pi(y) = sum over levels |sum_k <y|phi_k><phi_k|start>|^2.
    """
    if not 0 <= start < h.dim:
        raise ValueError("start vertex out of range")
    values, vectors = _linalg.eig_hermitian(h.matrix)
    return _linalg.dephased_probabilities(
        vectors, _linalg.group_indices_by_phase(values), np.eye(h.dim)[start])


def time_averaged_distribution(h, start, big_t):
    """Average of |<y|exp(-iHt)|start>|^2 over t in [0, T], in closed form.

    With real eigenpairs (E_j, v_j) the average is
    sum_jk v_j(y) v_j(s) g((E_j - E_k) T) v_k(s) v_k(y), where
    g(x) = (1 - exp(-ix)) / (ix) is the mean of exp(-iEt) over the window
    and g(0) = 1 carries each degenerate level.
    """
    if not 0.0 < big_t < math.inf:
        raise ValueError("averaging time must be positive and finite")
    if not 0 <= start < h.dim:
        raise ValueError("start vertex out of range")
    values, vectors = _linalg.eig_hermitian(h.matrix)
    x = np.subtract.outer(values, values) * big_t
    g = np.ones(x.shape, dtype=complex)
    apart = x != 0.0
    g[apart] = -np.expm1(-1j * x[apart]) / (1j * x[apart])
    w = vectors * vectors[start]
    return ((w @ g) * w).sum(axis=1).real


def hypercube_antipode_prob(n, t):
    """Probability of the all-ones corner at time t from the all-zeros one.

    The negative hypercube adjacency splits into commuting single-qubit
    rotations, so each of the n bits flips with probability sin^2 t.
    """
    if n < 1:
        raise ValueError("need at least one dimension")
    return math.sin(t) ** (2 * n)


@dataclass(frozen=True)
class WeightedLine:
    """Path graph with positive hop weights, one per link."""

    nodes: int
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.nodes < 2:
            raise ValueError("need at least two nodes")
        if len(self.weights) != self.nodes - 1:
            raise ValueError("need exactly one weight per link")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")

    def hamiltonian(self):
        """Negative weighted adjacency, matching the full-graph convention."""
        m = np.zeros((self.nodes, self.nodes))
        for i, w in enumerate(self.weights):
            m[i, i + 1] = m[i + 1, i] = -w
        return Hamiltonian(m)


GluedTreesReduction = namedtuple(
    "GluedTreesReduction", "line graph columns equivalence_error")


def glued_trees_reduce(kind, n, seed=None):
    """Collapse a glued-trees graph onto its column-state line.

    kind "plain" glues the two depth-n trees at a shared leaf layer,
    giving 2n-1 columns with every hop weight sqrt(2); kind "cycle"
    joins separate leaf layers by an alternating cycle, giving 2n
    columns with a middle weight 2.  For n <= 6 the reduction is checked
    as max|A Q - Q H| for the graph's Hamiltonian A, its normalized column
    states Q and the line's H: zero means A acts on the columns as H, so
    both evolutions agree at every time.  Only the check builds the graph
    and its columns: above n = 6 all three are None.
    """
    if n < 2:
        raise ValueError("need trees of depth at least 2")
    if kind == "plain":
        weights = [math.sqrt(2.0)] * (2 * n - 2)
    elif kind == "cycle":
        weights = [math.sqrt(2.0)] * (n - 1) + [2.0] + [math.sqrt(2.0)] * (n - 1)
    else:
        raise ValueError(f"unknown glued-trees kind {kind!r}")
    line = WeightedLine(len(weights) + 1, weights)

    graph = columns = error = None
    if n <= 6:
        graph = (_graphs.glued_trees(n) if kind == "plain" else
                 _graphs.glued_trees_cycle(n, 0 if seed is None else seed))
        columns = _graphs.tree_columns(kind, n)
        basis = np.zeros((graph.n, len(columns)))
        for j, col in enumerate(columns):
            basis[col, j] = 1.0 / math.sqrt(len(col))
        error = float(np.max(np.abs(-_graphs.adjacency(graph) @ basis
                                    - basis @ line.hamiltonian().matrix)))
    return GluedTreesReduction(line, graph, columns, error)


def analog_search(n, t, marked=1):
    """Success probability of the Hamiltonian Grover search at time t.

    The generator -|s><s| - |w><w| keeps the state in the plane spanned
    by the uniform state and the marked one, rotating at frequency
    delta = sqrt(M/N); unity is reached at t = pi/(2 delta).
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if not 1 <= marked < n:
        raise ValueError("marked count must satisfy 1 <= M < N")
    delta = math.sqrt(marked / n)
    return math.sin(delta * t) ** 2 + delta ** 2 * math.cos(delta * t) ** 2


NandResult = namedtuple("NandResult", "bit oracle_bit trace")


def _check_nand_tree(tree):
    if isinstance(tree, tuple):
        if len(tree) != 2:
            raise ValueError("internal nodes need exactly two children")
        for child in tree:
            _check_nand_tree(child)
    elif tree not in (0, 1):
        raise ValueError("leaves must carry bit 0 or 1")


def _boolean_nand(tree):
    if not isinstance(tree, tuple):
        return tree
    return 1 - (_boolean_nand(tree[0]) & _boolean_nand(tree[1]))


def nand_eval(tree):
    """Evaluate a NAND tree by the zero-energy amplitude-ratio recursion.

    Walking an eigenvector at E = 0 down the tree, the ratio of a
    vertex's amplitude to its parent's obeys X = -1/(C1 + C2).  A bit-0
    leaf has no children and gets the large positive sentinel; a bit-1
    leaf carries one pendant vertex, one recursion step past the
    sentinel.  Large ratios then mean subtree value 0 and small ratios
    value 1, with any threshold between the two scales; 1 is used.  The
    boolean evaluation is returned alongside for comparison, with the
    ratio trace in leaf-to-root order.
    """
    _check_nand_tree(tree)
    trace = []

    def ratio(node):
        if not isinstance(node, tuple):
            x = NAND_SENTINEL if node == 0 else -1.0 / NAND_SENTINEL
        else:
            x = -1.0 / (ratio(node[0]) + ratio(node[1]))
        trace.append(x)
        return x

    root = ratio(tree)
    return NandResult(0 if abs(root) >= 1.0 else 1, _boolean_nand(tree), trace)


def hard_nand_instance(depth, rng, value=None):
    """Game tree drawn from the adversarial distribution.

    A value-1 node gets children 0 and 1 in random order, never two
    zeros, so evaluations short-circuit as rarely as possible; a value-0
    node is forced to children (1, 1).  On balanced trees these
    instances drive the randomized evaluator to its N^0.753 scaling.
    """
    if depth < 0:
        raise ValueError("tree depth must be nonnegative")
    if value is None:
        value = int(rng.integers(2))
    if depth == 0:
        return value
    if value == 0:
        kids = [1, 1]
    else:
        kids = [0, 1]
        if rng.integers(2):
            kids.reverse()
    return tuple(hard_nand_instance(depth - 1, rng, v) for v in kids)


def classical_nand_cost(tree, rng, trials):
    """Mean leaf queries of randomized recursive NAND evaluation.

    Each trial descends into a uniformly chosen child first and skips
    the sibling whenever the first branch returns 0.
    """
    _check_nand_tree(tree)

    def evaluate(node):
        if not isinstance(node, tuple):
            return node, 1
        first, second = (0, 1) if rng.integers(2) else (1, 0)
        b1, q1 = evaluate(node[first])
        if b1 == 0:
            return 1, q1
        b2, q2 = evaluate(node[second])
        return 1 - b2, q1 + q2

    total = 0
    for _ in range(trials):
        total += evaluate(tree)[1]
    return total / trials
