"""Graph families for the walk modules.

All graphs are simple undirected graphs with an optional set of self-loops,
stored explicitly with a documented canonical vertex order so that every
matrix built downstream has a reproducible basis.

The edges are stored once, as ``Graph.pairs``: an (m, 2) integer array of
rows (u, v) with u < v, sorted and free of duplicates.  ``arcs`` gives both
directions of every edge plus each loop in lexicographic order, and
degrees, matrices, neighbor lists, colorings and the edge-state walks are
array operations on it; ``arc_reversal`` indexes each arc's reversal.

Canonical orders:

* ``line``/``cycle``: integers 0..n-1 along the path.
* ``hypercube``: bitstring value of the vertex.
* ``complete``: integers 0..n-1.
* ``star_extra_edge``: hub is vertex 0, the two connected arm tips are 1, 2.
* ``glued_trees``/``glued_trees_cycle``: breadth-first from the entrance
  root, column by column, exit root last.
* ``subset_bipartite``: subsets in colexicographic order, q-element subsets
  before (q+1)-element ones.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "EdgeColoring",
    "line",
    "cycle",
    "complete",
    "hypercube",
    "star_extra_edge",
    "glued_trees",
    "glued_trees_cycle",
    "subset_bipartite",
    "arcs",
    "arc_reversal",
    "adjacency",
    "degree_matrix",
    "laplacian",
    "degrees",
    "neighbors",
    "is_connected",
    "bipartition",
    "is_bipartite",
    "color_edges",
    "tree_columns",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph with optional self-loops and vertex labels.

    ``pairs`` is given as an (m, 2) array or any iterable of pairs in either
    orientation and stored canonically, read-only.  Equality is on n,
    edges and loops.
    """

    n: int
    pairs: np.ndarray = ()
    loops: frozenset = frozenset()
    labels: tuple = None
    family: str = ""
    params: tuple = ()

    def __post_init__(self):
        n, raw = self.n, self.pairs
        raw = np.asarray(raw if isinstance(raw, np.ndarray) else list(raw),
                         dtype=np.int64)
        if raw.size and (raw.ndim != 2 or raw.shape[1] != 2):
            raise ValueError("edges must be given as vertex pairs")
        raw = raw.reshape(-1, 2)
        bad = ((raw < 0) | (raw >= n)).any(axis=1)
        if bad.any():
            u, v = raw[np.argmax(bad)]
            raise ValueError(f"edge ({u},{v}) out of range")
        if np.any(raw[:, 0] == raw[:, 1]):
            raise ValueError("self-loops belong in .loops, not .pairs")
        keys = raw.min(axis=1) * n + raw.max(axis=1)
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
        pairs = np.stack(np.divmod(keys, max(n, 1)), axis=1)
        pairs.flags.writeable = False
        loops = np.fromiter(self.loops, dtype=np.int64)
        bad = (loops < 0) | (loops >= n)
        if bad.any():
            raise ValueError(f"loop at {loops[np.argmax(bad)]} out of range")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "loops", frozenset(loops.tolist()))

    @property
    def m(self):
        """Number of edges, loops included."""
        return len(self.pairs) + len(self.loops)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.loops == other.loops
                and np.array_equal(self.pairs, other.pairs))

    def __hash__(self):
        return hash((self.n, self.pairs.tobytes(), self.loops))


@dataclass(frozen=True)
class EdgeColoring:
    """Direction labels for a d-regular graph.

    ``next_vertex[v, c]`` is the neighbor reached from v along color c; each
    color class is a permutation of the vertices, which is what makes the
    coined shift built from it unitary.
    """

    d: int
    next_vertex: np.ndarray = field(compare=False)


def line(n):
    """Path graph on n vertices."""
    if n < 1:
        raise ValueError("need at least one vertex")
    v = np.arange(n - 1)
    return Graph(n, np.stack([v, v + 1], axis=1), family="line", params=(n,))


def cycle(n):
    """Ring on n vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    v = np.arange(n)
    return Graph(n, np.stack([v, (v + 1) % n], axis=1), family="cycle",
                 params=(n,))


def complete(n, loops=False):
    """Complete graph, optionally with a self-loop on every vertex."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return Graph(n, np.stack(np.triu_indices(n, 1), axis=1),
                 range(n) if loops else (), family="complete",
                 params=(n, bool(loops)))


def hypercube(n):
    """n-dimensional hypercube on 2**n bitstring vertices."""
    if n < 1:
        raise ValueError("dimension must be positive")
    v = np.arange(1 << n)[:, None]
    w = v ^ (1 << np.arange(n))
    pairs = np.stack(np.broadcast_arrays(v, w), axis=-1)[w > v]
    return Graph(1 << n, pairs, family="hypercube", params=(n,))


def star_extra_edge(n_arms):
    """Star with a hub (vertex 0), ``n_arms`` arm tips, and one extra edge
    closing the triangle between arm tips 1 and 2."""
    if n_arms < 2:
        raise ValueError("need at least two arms to connect")
    pairs = [(0, j) for j in range(1, n_arms + 1)] + [(1, 2)]
    return Graph(n_arms + 1, pairs, family="star_extra_edge",
                 params=(n_arms,))


def _two_trees(depth, total):
    """Edges of the entrance tree, a heap in which v has children 2v+1 and
    2v+2 down to 2**(depth-1) leaves, and of its mirror v -> total-1-v."""
    child = np.arange(1, 2**depth - 1)
    tree = np.stack([(child - 1) // 2, child], axis=1)
    return np.concatenate([tree, total - 1 - tree])


def glued_trees(n):
    """Two depth-n binary trees sharing their leaf layer.

    The combined graph has 2n-1 columns of sizes 1, 2, ..., 2^{n-1}, ..., 2,
    1 and 3*2^{n-1} - 2 vertices; entrance root is vertex 0, exit root is the
    last vertex.  Each non-central vertex has one edge toward its endpoint
    and two toward the center.
    """
    if n < 2:
        raise ValueError("need trees of depth at least 2")
    total = 3 * 2 ** (n - 1) - 2
    return Graph(total, _two_trees(n, total), family="glued_trees",
                 params=(n,))


def glued_trees_cycle(n, seed):
    """Two depth-n binary trees joined by a random alternating leaf cycle.

    Both trees keep their own 2^{n-1} leaves; a single cycle of length 2^n
    alternates between the two leaf sets, drawn by Fisher-Yates shuffles of
    each side from the given seed.  Every vertex except the two roots then
    has degree 3.
    """
    if n < 2:
        raise ValueError("need trees of depth at least 2")
    total = 2 * (2**n - 1)
    columns = tree_columns("cycle", n)
    rng = np.random.default_rng(seed)
    left = np.array(_fisher_yates(columns[n - 1], rng))
    right = np.array(_fisher_yates(columns[n], rng))
    ring = np.concatenate([np.stack([left, right], axis=1),
                           np.stack([right, np.roll(left, -1)], axis=1)])
    return Graph(total, np.concatenate([_two_trees(n, total), ring]),
                 family="glued_trees_cycle", params=(n, seed))


def _fisher_yates(items, rng):
    a = list(items)
    for i in range(len(a) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        a[i], a[j] = a[j], a[i]
    return a


def tree_columns(kind, n):
    """Vertex indices of each column of a glued-trees graph.

    ``kind`` is "plain" (shared leaf layer, 2n-1 columns) or "cycle"
    (separate leaf layers, 2n columns); indices follow the canonical
    breadth-first order of the builders.
    """
    if kind == "plain":
        sizes = [2**k for k in range(n)] + [2**k for k in range(n - 2, -1, -1)]
    elif kind == "cycle":
        sizes = [2**k for k in range(n)] + [2**k for k in range(n - 1, -1, -1)]
    else:
        raise ValueError(f"unknown glued-trees kind {kind!r}")
    return [np.arange(end - size, end)
            for size, end in zip(sizes, np.cumsum(sizes))]


def subset_bipartite(n_items, q):
    """Bipartite graph of q-subsets versus (q+1)-subsets of an n-item set.

    Sets are adjacent when they differ in exactly one element, i.e. the
    smaller is contained in the larger.  Labels carry the subsets themselves.
    Each side lists its sets in colex order, which is ascending order of
    their bitmasks, and q-set i is joined to the (q+1)-set whose mask is
    mask_i | 2^x for each element x it lacks.
    """
    if not 0 <= q < n_items <= 63:
        raise ValueError("need 0 <= q < number of items <= 63, the bits of "
                         "an int64 set mask")
    left = _colex_masks(n_items, q)
    right = _colex_masks(n_items, q + 1)
    bits = np.arange(n_items)
    i, x = np.nonzero((left[:, None] >> bits & 1) == 0)
    pairs = np.stack([i, left.size + np.searchsorted(right, left[i] | 1 << x)],
                     axis=1)
    labels = []
    for k, masks in ((q, left), (q + 1, right)):
        members = np.nonzero(masks[:, None] >> bits & 1)[1]
        labels += map(frozenset, members.reshape(masks.size, k).tolist())
    return Graph(left.size + right.size, pairs, labels=tuple(labels),
                 family="subset_bipartite", params=(n_items, q))


def _colex_masks(n_items, k):
    # the k-sets whose largest element is m follow every k-set below m, in
    # the order of the (k-1)-sets of range(m), which open the colex list
    masks = np.zeros(1, dtype=np.int64)
    for j in range(1, k + 1):
        masks = np.concatenate([masks[: math.comb(m, j - 1)] | 1 << m
                                for m in range(j - 1, n_items)])
    return masks


def arcs(g):
    """Both directions of every edge plus each loop once, as a (k, 2) array
    of (source, destination) rows in lexicographic order."""
    u, v = g.pairs.T
    loops = np.fromiter(g.loops, dtype=np.int64)
    keys = np.concatenate([u * g.n + v, v * g.n + u, loops * (g.n + 1)])
    keys.sort()
    rows = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, max(g.n, 1), out=(rows[:, 0], rows[:, 1]))
    return rows


def arc_reversal(arcs):
    """Index of each arc's reversal in a symmetric arc array in
    lexicographic order, such as ``arcs(g)``."""
    # the arc set is symmetric, so sorting by (dst, src) lists the
    # reversed arcs in lexicographic order
    return np.lexsort((arcs[:, 0], arcs[:, 1]))


def neighbors(g):
    """Sorted adjacency lists, loops excluded."""
    src, dst = arcs(g).T
    src, dst = src[src != dst], dst[src != dst]
    bounds = np.searchsorted(src, np.arange(g.n + 1))
    return [dst[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]


def degrees(g):
    """Vertex degrees; a loop contributes 1."""
    return np.bincount(arcs(g)[:, 0], minlength=g.n)


def adjacency(g):
    a = np.zeros((g.n, g.n))
    src, dst = arcs(g).T
    a[src, dst] = 1.0
    return a


def degree_matrix(g):
    return np.diag(degrees(g).astype(float))


def laplacian(g):
    """Adjacency minus degree, so row sums vanish and the diagonal is -d."""
    return adjacency(g) - degree_matrix(g)


def is_connected(g):
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    adj = neighbors(g)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def bipartition(g):
    """Side of each vertex, 0 or 1, in a two-coloring found by search from
    each uncolored vertex in order, that vertex on side 0; None when the
    graph is not bipartite.  Loops break it."""
    if g.loops:
        return None
    color = [-1] * g.n
    adj = neighbors(g)
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return np.array(color, dtype=np.int64)


def is_bipartite(g):
    """Two-colorability, read off ``bipartition``; loops break it."""
    return bipartition(g) is not None


def color_edges(g):
    """Canonical direction labels for cycles, hypercubes and complete
    graphs, with or without loops.

    A cycle uses color 0 for the +1 direction and color 1 for -1; the
    hypercube flips bit j under color j; a complete graph shifts by a
    constant, the loop, when present, being the zero shift.
    """
    d = degrees(g)
    if g.n == 0 or np.any(d != d[0]):
        raise ValueError("edge coloring requires a regular graph")
    degree = int(d[0])
    v = np.arange(g.n)[:, None]
    if g.family == "cycle":
        nxt = (v + np.array([1, -1])) % g.n
    elif g.family == "hypercube":
        nxt = v ^ (1 << np.arange(g.params[0]))
    elif g.family == "complete":
        nxt = (v + np.arange(0 if g.loops else 1, g.n)) % g.n
    else:
        raise ValueError(f"no canonical coloring for family {g.family!r}")
    _check_coloring(g, nxt)
    return EdgeColoring(degree, nxt)


def _check_coloring(g, nxt):
    column_sorted = np.sort(nxt, axis=0) == np.arange(g.n)[:, None]
    if not column_sorted.all():
        bad = np.argmin(column_sorted.all(axis=0))
        raise AssertionError(f"color {bad} is not a permutation")
    keys = arcs(g) @ [g.n, 1]
    wanted = np.arange(g.n)[:, None] * g.n + nxt
    on_edges = keys[np.searchsorted(keys, wanted).clip(max=keys.size - 1)] == wanted
    if not on_edges.all():
        v, c = np.argwhere(~on_edges)[0]
        raise AssertionError(f"color {c} leaves the edge set at {v}")

