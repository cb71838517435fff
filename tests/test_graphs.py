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
    # adjacency happens exactly on containment
    a = G.adjacency(g)
    for i in range(10):
        for j in range(10, 20):
            expected = 1.0 if g.labels[i] < g.labels[j] else 0.0
            assert a[i, j] == expected


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
    ]
    for g in cases:
        col = G.color_edges(g)
        a = G.adjacency(g)
        for c in range(col.d):
            targets = [col.apply(v, c) for v in range(g.n)]
            assert sorted(targets) == list(range(g.n))
            for v in range(g.n):
                assert a[v, targets[v]] == 1.0


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


def test_edge_list_round_trip():
    for g in (G.cycle(7), G.complete(4, loops=True), G.glued_trees(3)):
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
