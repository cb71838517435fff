"""Graph families for the walk modules.

All graphs are simple undirected graphs with an optional set of self-loops,
stored explicitly with a documented canonical vertex order so that every
matrix built downstream has a reproducible basis.

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


@dataclass(frozen=True)
class Graph:
    """Undirected graph with optional self-loops and vertex labels."""

    n: int
    edges: frozenset
    loops: frozenset = frozenset()
    labels: tuple = field(default=None, compare=False)
    family: str = field(default="", compare=False)
    params: tuple = field(default=(), compare=False)

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError("self-loops belong in .loops, not .edges")
        for v in self.loops:
            if not 0 <= v < self.n:
                raise ValueError(f"loop at {v} out of range")

    @property
    def m(self):
        """Number of edges, loops included."""
        return len(self.edges) + len(self.loops)


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


def _make(n, pairs, loops=(), labels=None, family="", params=()):
    edges = frozenset((min(u, v), max(u, v)) for u, v in pairs)
    return Graph(n, edges, frozenset(loops), labels, family, tuple(params))


def line(n):
    """Path graph on n vertices."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return _make(n, [(i, i + 1) for i in range(n - 1)], family="line", params=[n])


def cycle(n):
    """Ring on n vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return _make(n, [(i, (i + 1) % n) for i in range(n)], family="cycle", params=[n])


def complete(n, loops=False):
    """Complete graph, optionally with a self-loop on every vertex."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return _make(
        n,
        combinations(range(n), 2),
        loops=range(n) if loops else (),
        family="complete",
        params=[n, bool(loops)],
    )


def complete_bipartite(n1, n2):
    if n1 < 1 or n2 < 1:
        raise ValueError("both parts must be nonempty")
    pairs = [(i, n1 + j) for i in range(n1) for j in range(n2)]
    return _make(n1 + n2, pairs, family="complete_bipartite", params=[n1, n2])


def m_partite(m, size):
    """Complete m-partite graph with ``size`` vertices per part."""
    if m < 2 or size < 1:
        raise ValueError("need at least two nonempty parts")
    pairs = []
    for p in range(m):
        for q in range(p + 1, m):
            pairs.extend(
                (p * size + i, q * size + j) for i in range(size) for j in range(size)
            )
    return _make(m * size, pairs, family="m_partite", params=[m, size])


def hypercube(n):
    """n-dimensional hypercube on 2**n bitstring vertices."""
    if n < 1:
        raise ValueError("dimension must be positive")
    pairs = []
    for v in range(1 << n):
        for j in range(n):
            w = v ^ (1 << j)
            if w > v:
                pairs.append((v, w))
    return _make(1 << n, pairs, family="hypercube", params=[n])


def star_extra_edge(n_arms):
    """Star with a hub (vertex 0), ``n_arms`` arm tips, and one extra edge
    closing the triangle between arm tips 1 and 2."""
    if n_arms < 2:
        raise ValueError("need at least two arms to connect")
    pairs = [(0, j) for j in range(1, n_arms + 1)] + [(1, 2)]
    return _make(n_arms + 1, pairs, family="star_extra_edge", params=[n_arms])


def glued_trees(n):
    """Two depth-n binary trees sharing their leaf layer.

    The combined graph has 2n-1 columns of sizes 1, 2, ..., 2^{n-1}, ..., 2,
    1 and 3*2^{n-1} - 2 vertices; entrance root is vertex 0, exit root is the
    last vertex.  Each non-central vertex has one edge toward its endpoint
    and two toward the center.
    """
    if n < 2:
        raise ValueError("need trees of depth at least 2")
    columns = tree_columns("plain", n)
    pairs = []
    # left tree: parent j in column k feeds children 2j, 2j+1 in column k+1
    for k in range(n - 1):
        for j, v in enumerate(columns[k]):
            pairs.append((v, columns[k + 1][2 * j]))
            pairs.append((v, columns[k + 1][2 * j + 1]))
    # right tree, mirrored: parent j in column k+1 feeds 2j, 2j+1 in column k
    for k in range(n - 1, 2 * n - 2):
        for j, v in enumerate(columns[k + 1]):
            pairs.append((v, columns[k][2 * j]))
            pairs.append((v, columns[k][2 * j + 1]))
    total = 3 * 2 ** (n - 1) - 2
    return _make(total, pairs, family="glued_trees", params=[n])


def glued_trees_cycle(n, seed):
    """Two depth-n binary trees joined by a random alternating leaf cycle.

    Both trees keep their own 2^{n-1} leaves; a single cycle of length 2^n
    alternates between the two leaf sets, drawn by Fisher-Yates shuffles of
    each side from the given seed.  Every vertex except the two roots then
    has degree 3.
    """
    if n < 2:
        raise ValueError("need trees of depth at least 2")
    columns = tree_columns("cycle", n)
    pairs = []
    for k in range(n - 1):
        for j, v in enumerate(columns[k]):
            pairs.append((v, columns[k + 1][2 * j]))
            pairs.append((v, columns[k + 1][2 * j + 1]))
    for k in range(n, 2 * n - 1):
        for j, v in enumerate(columns[k + 1]):
            pairs.append((v, columns[k][2 * j]))
            pairs.append((v, columns[k][2 * j + 1]))
    rng = np.random.default_rng(seed)
    left = _fisher_yates(list(columns[n - 1]), rng)
    right = _fisher_yates(list(columns[n]), rng)
    count = len(left)
    for i in range(count):
        pairs.append((left[i], right[i]))
        pairs.append((right[i], left[(i + 1) % count]))
    total = 2 * (2**n - 1)
    return _make(total, pairs, family="glued_trees_cycle", params=[n, seed])


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
    columns = []
    start = 0
    for size in sizes:
        columns.append(np.arange(start, start + size))
        start += size
    return columns


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
    return _make(
        len(left) + len(right),
        pairs,
        labels=labels,
        family="subset_bipartite",
        params=[n_items, q],
    )


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


def neighbors(g):
    """Sorted adjacency lists, loops excluded."""
    out = [[] for _ in range(g.n)]
    for u, v in g.edges:
        out[u].append(v)
        out[v].append(u)
    return [sorted(vs) for vs in out]


def degrees(g):
    """Vertex degrees; a loop contributes 1."""
    d = np.zeros(g.n, dtype=int)
    for u, v in g.edges:
        d[u] += 1
        d[v] += 1
    for v in g.loops:
        d[v] += 1
    return d


def adjacency(g):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    for v in g.loops:
        a[v, v] = 1.0
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
    nxt = np.zeros((g.n, degree), dtype=int)
    if g.family == "cycle":
        for v in range(g.n):
            nxt[v, 0] = (v + 1) % g.n
            nxt[v, 1] = (v - 1) % g.n
    elif g.family == "hypercube":
        dim = g.params[0]
        for v in range(g.n):
            for j in range(dim):
                nxt[v, j] = v ^ (1 << j)
    elif g.family == "complete":
        has_loops = bool(g.loops)
        shifts = range(0, g.n) if has_loops else range(1, g.n)
        for v in range(g.n):
            for c, s in enumerate(shifts):
                nxt[v, c] = (v + s) % g.n
    elif g.family == "complete_bipartite" and g.params[0] == g.params[1]:
        half = g.params[0]
        for i in range(half):
            for c in range(half):
                nxt[i, c] = half + (i + c) % half
                nxt[half + i, c] = (i - c) % half
    elif g.family == "m_partite":
        parts, size = g.params
        for p in range(parts):
            for i in range(size):
                v = p * size + i
                for c in range(degree):
                    dp, off = 1 + c // size, c % size
                    nxt[v, c] = ((p + dp) % parts) * size + (i + off) % size
    else:
        raise ValueError(f"no canonical coloring for family {g.family!r}")
    _check_coloring(g, nxt)
    return EdgeColoring(degree, nxt)


def _check_coloring(g, nxt):
    adj = adjacency(g)
    for c in range(nxt.shape[1]):
        column = nxt[:, c]
        if len(set(int(x) for x in column)) != g.n:
            raise AssertionError(f"color {c} is not a permutation")
        for v in range(g.n):
            if adj[v, column[v]] == 0.0:
                raise AssertionError(f"color {c} leaves the edge set at {v}")


def to_edge_list(g):
    """Serialize as 'n m' followed by one 'u v' line per edge (loops 'v v')."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
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
    return _make(n, pairs, loops=[u for u, _ in loops])
