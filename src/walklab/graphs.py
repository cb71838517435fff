"""Graph families for the walk modules.

All graphs are simple undirected graphs with an optional set of self-loops,
stored explicitly with a documented canonical vertex order so that every
matrix built downstream has a reproducible basis.

The edges are stored once, as ``Graph.pairs``: an (m, 2) integer array of
rows (u, v) with u < v, sorted and free of duplicates.  ``arcs`` gives both
directions of every edge plus each loop, and degrees, matrices, neighbor
lists and colorings are array operations on it.  ``Graph.edges`` is a
frozenset view built on first use, for callers that want tuples.

Canonical orders:

* ``line``/``cycle``: integers 0..n-1 along the path.
* ``hypercube``: bitstring value of the vertex.
* ``complete``, ``complete_bipartite``, ``m_partite``: part by part.
* ``star_extra_edge``: hub is vertex 0, the two connected arm tips are 1, 2.
* ``glued_trees``/``glued_trees_cycle``: breadth-first from the entrance
  root, column by column, exit root last.
* ``subset_bipartite``: subsets in colexicographic order, q-element subsets
  before (q+1)-element ones.
"""

import inspect
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

__all__ = [
    "Graph",
    "EdgeColoring",
    "line",
    "cycle",
    "complete",
    "complete_bipartite",
    "m_partite",
    "hypercube",
    "star_extra_edge",
    "glued_trees",
    "glued_trees_cycle",
    "subset_bipartite",
    "build_graph",
    "arcs",
    "adjacency",
    "degree_matrix",
    "laplacian",
    "matrix",
    "degrees",
    "neighbors",
    "is_connected",
    "is_bipartite",
    "color_edges",
    "to_edge_list",
    "parse_edge_list",
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
            raise ValueError("self-loops belong in .loops, not .edges")
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

    @cached_property
    def edges(self):
        """The edges as a frozenset of (u, v) tuples with u < v."""
        return frozenset(map(tuple, self.pairs.tolist()))

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

    def apply(self, v, c):
        return int(self.next_vertex[v, c])


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


def complete_bipartite(n1, n2):
    if n1 < 1 or n2 < 1:
        raise ValueError("both parts must be nonempty")
    i, j = np.divmod(np.arange(n1 * n2), n2)
    return Graph(n1 + n2, np.stack([i, n1 + j], axis=1),
                 family="complete_bipartite", params=(n1, n2))


def m_partite(m, size):
    """Complete m-partite graph with ``size`` vertices per part."""
    if m < 2 or size < 1:
        raise ValueError("need at least two nonempty parts")
    u, v = np.triu_indices(m * size, 1)
    across = u // size != v // size
    return Graph(m * size, np.stack([u[across], v[across]], axis=1),
                 family="m_partite", params=(m, size))


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
    """
    if not 0 <= q < n_items:
        raise ValueError("need 0 <= q < number of items")
    left = _colex_subsets(n_items, q)
    right = _colex_subsets(n_items, q + 1)
    right_index = {s: len(left) + i for i, s in enumerate(right)}
    pairs = []
    for i, s in enumerate(left):
        rest = set(range(n_items)) - set(s)
        for x in rest:
            t = tuple(sorted(s + (x,)))
            pairs.append((i, right_index[t]))
    labels = tuple(frozenset(s) for s in left + right)
    return Graph(len(left) + len(right), pairs, labels=labels,
                 family="subset_bipartite", params=(n_items, q))


def _colex_subsets(n_items, k):
    subs = list(combinations(range(n_items), k))
    subs.sort(key=lambda s: tuple(reversed(s)))
    return subs


_FAMILIES = {
    "line": line,
    "cycle": cycle,
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "m_partite": m_partite,
    "hypercube": hypercube,
    "star_extra_edge": star_extra_edge,
    "glued_trees": glued_trees,
    "glued_trees_cycle": glued_trees_cycle,
    "subset_bipartite": subset_bipartite,
}


def build_graph(family, *args, **kwargs):
    """Build a graph by family name; see the module docstring for the list."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown graph family {family!r}") from None
    try:
        inspect.signature(builder).bind(*args, **kwargs)
    except TypeError as err:
        raise ValueError(f"graph family {family!r}: {err}") from None
    return builder(*args, **kwargs)


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


def matrix(g, kind):
    """Matrix of the requested kind: adjacency, laplacian, or degree."""
    table = {"adjacency": adjacency, "laplacian": laplacian, "degree": degree_matrix}
    try:
        return table[kind](g)
    except KeyError:
        raise ValueError(f"unknown matrix kind {kind!r}") from None


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


def is_bipartite(g):
    """Two-colorability check by breadth-first search; loops break it."""
    if g.loops:
        return False
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
                    return False
    return True


def color_edges(g):
    """Canonical direction labels for the regular families.

    line/cycle use color 0 for the +1 direction and color 1 for -1; the
    hypercube flips bit j under color j; complete graphs shift by a constant
    (the loop, when present, is the zero shift); balanced bipartite and
    multipartite graphs combine a part shift with an offset shift.
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
    elif g.family == "complete_bipartite" and g.params[0] == g.params[1]:
        half = g.params[0]
        c = np.arange(half)
        nxt = np.where(v < half, half + (v + c) % half, (v - half - c) % half)
    elif g.family == "m_partite":
        parts, size = g.params
        p, i = np.divmod(v, size)
        c = np.arange(degree)
        nxt = ((p + 1 + c // size) % parts) * size + (i + c % size) % size
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


def to_edge_list(g):
    """Serialize as 'n m' followed by one 'u v' line per edge (loops 'v v')."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.pairs.tolist())
    lines.extend(f"{v} {v}" for v in sorted(g.loops))
    return "\n".join(lines) + "\n"


def parse_edge_list(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    n, m = (int(tok) for tok in lines[0].split())
    if len(lines) - 1 != m:
        raise ValueError("edge count does not match the header")
    pairs, loops = [], []
    for ln in lines[1:]:
        u, v = (int(tok) for tok in ln.split())
        (loops if u == v else pairs).append((u, v))
    return Graph(n, pairs, [u for u, _ in loops])
