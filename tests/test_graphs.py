import itertools

import numpy as np
import pytest

from walklab import graphs as G


def test_complete_graph_counts():
    g = G.complete(7)
    assert g.n == 7
    assert len(g.edges) == 21


def test_hypercube_counts():
    g = G.hypercube(4)
    assert g.n == 16
    assert len(g.edges) == 4 * 2**3


def test_line_and_cycle_shapes():
    assert len(G.line(6).edges) == 5
    assert len(G.cycle(6).edges) == 6
    with pytest.raises(ValueError):
        G.cycle(2)


def test_build_graph_dispatch():
    g = G.build_graph("complete_bipartite", 3, 4)
    assert g.n == 7
    assert len(g.edges) == 12
    with pytest.raises(ValueError):
        G.build_graph("moebius", 3)
    with pytest.raises(ValueError, match="complete_bipartite"):
        G.build_graph("complete_bipartite", 3)


def test_m_partite_counts():
    g = G.m_partite(3, 2)
    assert g.n == 6
    # three pairs of parts, 2*2 edges each
    assert len(g.edges) == 12
    assert np.all(G.degrees(g) == 4)


def test_star_extra_edge_structure():
    g = G.star_extra_edge(5)
    assert g.n == 6
    deg = G.degrees(g)
    assert deg[0] == 5
    assert deg[1] == deg[2] == 2
    assert deg[3] == deg[4] == deg[5] == 1
    assert (1, 2) in g.edges


def test_glued_trees_shared_leaf_layer():
    g = G.glued_trees(4)
    cols = G.tree_columns("plain", 4)
    assert [len(c) for c in cols] == [1, 2, 4, 8, 4, 2, 1]
    assert g.n == 22
    deg = G.degrees(g)
    # roots have 2 children; center column vertices have one parent per side
    assert deg[0] == 2 and deg[g.n - 1] == 2
    for v in cols[3]:
        assert deg[v] == 2
    for k in (1, 2, 4, 5):
        for v in cols[k]:
            assert deg[v] == 3
    assert G.is_connected(g)


def test_glued_trees_cycle_structure():
    g = G.glued_trees_cycle(4, seed=9)
    cols = G.tree_columns("cycle", 4)
    assert [len(c) for c in cols] == [1, 2, 4, 8, 8, 4, 2, 1]
    assert g.n == 30
    deg = G.degrees(g)
    assert deg[0] == 2 and deg[g.n - 1] == 2
    inner = set(range(g.n)) - {0, g.n - 1}
    assert all(deg[v] == 3 for v in inner)
    assert G.is_connected(g)


def test_glued_trees_cycle_alternates_and_is_single_cycle():
    n = 4
    g = G.glued_trees_cycle(n, seed=123)
    cols = G.tree_columns("cycle", n)
    left = set(int(v) for v in cols[n - 1])
    right = set(int(v) for v in cols[n])
    cycle_edges = [
        (u, v)
        for u, v in g.edges
        if (u in left and v in right) or (u in right and v in left)
    ]
    assert len(cycle_edges) == 2**n
    # walk the cycle: it must visit every leaf exactly once before closing
    adj = {}
    for u, v in cycle_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    assert all(len(vs) == 2 for vs in adj.values())
    start = next(iter(left))
    prev, cur = None, start
    seen = 0
    while True:
        seen += 1
        a, b = adj[cur]
        nxt = b if a == prev else a
        prev, cur = cur, nxt
        if cur == start:
            break
    assert seen == 2**n


def test_glued_trees_cycle_deterministic_per_seed():
    a = G.glued_trees_cycle(5, seed=7)
    b = G.glued_trees_cycle(5, seed=7)
    c = G.glued_trees_cycle(5, seed=8)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_subset_bipartite_structure():
    g = G.subset_bipartite(5, 2)
    assert g.n == 10 + 10
    deg = G.degrees(g)
    assert all(deg[i] == 3 for i in range(10))  # can add any of 3 elements
    assert all(deg[i] == 3 for i in range(10, 20))  # can drop any of 3
    def colex(n, size):
        subsets = itertools.combinations(range(n), size)
        return [frozenset(c) for c in sorted(subsets, key=lambda c: c[::-1])]

    for n in range(1, 9):
        for q in range(n):
            g = G.subset_bipartite(n, q)
            left, right = colex(n, q), colex(n, q + 1)
            assert list(g.labels) == left + right
            # an edge exactly where the q-set lies strictly inside the
            # (q+1)-set
            want = {(i, len(left) + j)
                    for i, s in enumerate(left) for j, t in enumerate(right)
                    if s < t}
            assert g.edges == want, (n, q)
            assert not g.loops


def test_cycle_laplacian_diagonal():
    lap = G.laplacian(G.cycle(5))
    assert np.all(np.diag(lap) == -2.0)
    assert np.allclose(lap.sum(axis=1), 0.0)


def test_laplacian_is_adjacency_minus_degree():
    rng = np.random.default_rng(4)
    for _ in range(100):
        fam = rng.choice(["cycle", "complete", "hypercube", "line"])
        if fam == "hypercube":
            g = G.hypercube(int(rng.integers(1, 5)))
        elif fam == "line":
            g = G.line(int(rng.integers(2, 12)))
        elif fam == "cycle":
            g = G.cycle(int(rng.integers(3, 12)))
        else:
            g = G.complete(int(rng.integers(2, 9)), loops=bool(rng.integers(0, 2)))
        assert np.array_equal(G.laplacian(g), G.adjacency(g) - G.degree_matrix(g))
        assert np.array_equal(G.matrix(g, "adjacency"), G.adjacency(g))


def test_hypercube_adjacency_row_sums():
    a = G.adjacency(G.hypercube(3))
    assert np.all(a.sum(axis=1) == 3.0)


def test_cycle_coloring_canonical():
    col = G.color_edges(G.cycle(5))
    assert col.d == 2
    for v in range(5):
        assert col.apply(v, 0) == (v + 1) % 5
        assert col.apply(v, 1) == (v - 1) % 5


def test_hypercube_coloring_flips_bits():
    col = G.color_edges(G.hypercube(3))
    assert col.d == 3
    for v in range(8):
        for j in range(3):
            assert col.apply(v, j) == v ^ (1 << j)


def test_complete_with_loops_coloring():
    col = G.color_edges(G.complete(4, loops=True))
    assert col.d == 4
    for v in range(4):
        for c in range(4):
            assert col.apply(v, c) == (v + c) % 4


def test_colorings_are_permutations():
    cases = [
        G.cycle(9),
        G.hypercube(4),
        G.complete(6),
        G.complete(5, loops=True),
        G.complete_bipartite(4, 4),
        G.m_partite(3, 3),
        G.m_partite(4, 2),
    ]
    for g in cases:
        col = G.color_edges(g)
        a = G.adjacency(g)
        for c in range(col.d):
            targets = [col.apply(v, c) for v in range(g.n)]
            assert sorted(targets) == list(range(g.n))
            for v in range(g.n):
                assert a[v, targets[v]] == 1.0


def test_coloring_check_catches_a_shift_off_the_edges():
    v = np.arange(5)[:, None]
    G._check_coloring(G.cycle(5), (v + [1, -1]) % 5)
    with pytest.raises(AssertionError, match="leaves the edge set"):
        G._check_coloring(G.cycle(5), (v + [2, -2]) % 5)


def test_coloring_rejects_irregular():
    with pytest.raises(ValueError):
        G.color_edges(G.line(5))
    with pytest.raises(ValueError):
        G.color_edges(G.star_extra_edge(4))


def test_bipartiteness_detection():
    assert G.is_bipartite(G.cycle(6))
    assert not G.is_bipartite(G.cycle(5))
    assert G.is_bipartite(G.hypercube(3))
    assert not G.is_bipartite(G.complete(3))
    assert not G.is_bipartite(G.complete(2, loops=True))
    assert G.is_bipartite(G.glued_trees(3))
    # components are colored one by one; an odd cycle in a later one counts
    two_parts = G.Graph(5, {(0, 1), (2, 3), (3, 4)})
    assert G.is_bipartite(two_parts) and not G.is_connected(two_parts)
    assert not G.is_bipartite(G.Graph(5, {(0, 1), (2, 3), (3, 4), (2, 4)}))


def test_edge_list_round_trip():
    for g in (G.cycle(7), G.complete(4, loops=True), G.glued_trees(3),
              G.glued_trees_cycle(3, seed=2)):
        text = G.to_edge_list(g)
        back = G.parse_edge_list(text)
        assert back == g
    first_line = G.to_edge_list(G.complete(4, loops=True)).splitlines()[0]
    assert first_line == "4 10"


def test_graph_validation():
    with pytest.raises(ValueError):
        G.Graph(2, frozenset({(0, 5)}))
    with pytest.raises(ValueError):
        G.Graph(2, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="out of range"):
        G.Graph(3, np.array([[0, 1], [2, 3]]))
    with pytest.raises(ValueError, match="out of range"):
        G.Graph(3, np.array([[-1, 1]]))
    with pytest.raises(ValueError, match="self-loops"):
        G.Graph(3, np.array([[0, 1], [2, 2]]))
    with pytest.raises(ValueError, match="out of range"):
        G.Graph(3, (), frozenset({3}))
    with pytest.raises(ValueError, match="pairs"):
        G.Graph(3, np.array([[0, 1, 2]]))
    # an edge given in both orientations is one edge
    g = G.Graph(3, {(0, 1), (1, 0)})
    assert g.m == 1
    assert g.edges == {(0, 1)}
    assert G.degrees(g).tolist() == [1, 1, 0]
    assert G.neighbors(g) == [[1], [0], []]
    assert G.adjacency(g).sum() == 2.0
    assert G.parse_edge_list(G.to_edge_list(g)) == g
    assert g == G.Graph(3, np.array([[1, 0]]))
    assert g.pairs.tolist() == [[0, 1]]
    with pytest.raises(ValueError):
        g.pairs[0, 0] = 2


def _pairs_are_canonical(g):
    u, v = g.pairs.T
    keys = u * g.n + v
    assert g.pairs.shape == (len(g.edges), 2)
    assert np.all(u < v)
    assert np.all(np.diff(keys) > 0)  # sorted, no duplicate rows
    a = G.adjacency(g)
    assert g.m == (a.sum() + np.trace(a)) / 2


def _matches_rule(g, rule):
    u, v = np.indices((g.n, g.n))
    assert np.array_equal(G.adjacency(g), rule(u, v).astype(float))
    _pairs_are_canonical(g)


def test_families_match_closed_rules():
    for n in range(1, 10):
        _matches_rule(G.line(n), lambda u, v: abs(u - v) == 1)
        for loops in (False, True):
            _matches_rule(G.complete(n, loops),
                          lambda u, v: (u != v) | (loops & (u == v)))
    for n in range(3, 13):
        _matches_rule(G.cycle(n),
                      lambda u, v: np.isin((u - v) % n, (1, n - 1)))
    for dim in range(1, 7):
        def one_bit(u, v):
            x = u ^ v
            return sum((x >> j) & 1 for j in range(dim)) == 1
        _matches_rule(G.hypercube(dim), one_bit)
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            _matches_rule(G.complete_bipartite(n1, n2),
                          lambda u, v: (u < n1) != (v < n1))
    for m in range(2, 5):
        for size in range(1, 4):
            _matches_rule(G.m_partite(m, size),
                          lambda u, v: u // size != v // size)


def _tree_rule(columns):
    """Columns k and k+1 of sizes s and 2s join position j of the larger
    to position j // 2 of the smaller."""
    col = np.concatenate([np.full(len(c), k) for k, c in enumerate(columns)])
    pos = np.concatenate([np.arange(len(c)) for c in columns])
    size = np.array([len(c) for c in columns])[col]

    def child_of(u, v):
        return ((abs(col[u] - col[v]) == 1) & (size[u] == 2 * size[v])
                & (pos[u] // 2 == pos[v]))
    return lambda u, v: child_of(u, v) | child_of(v, u)


def test_glued_trees_match_parent_child_rule():
    for n in range(2, 7):
        _matches_rule(G.glued_trees(n), _tree_rule(G.tree_columns("plain", n)))
    for n in range(2, 6):
        for seed in range(3):
            g = G.glued_trees_cycle(n, seed)
            cols = G.tree_columns("cycle", n)
            u, v = np.indices((g.n, g.n))
            a = G.adjacency(g)
            leaves = np.isin(u, cols[n - 1]) & np.isin(v, cols[n])
            trees = ~(leaves | leaves.T)
            assert np.array_equal(a[trees], _tree_rule(cols)(u, v)[trees])
            # every leaf meets two leaves of the other tree
            assert np.all(a[np.ix_(cols[n - 1], cols[n])].sum(axis=1) == 2)
            assert np.all(a[np.ix_(cols[n - 1], cols[n])].sum(axis=0) == 2)
            _pairs_are_canonical(g)
