import math
from fractions import Fraction

import numpy as np
import pytest

from walklab import ctqw, graphs, linalg
from walklab.distributions import tvd


def dense_propagator(h, t):
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * values * t)) @ vectors.conj().T


class TestHamiltonians:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            ctqw.Hamiltonian(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ctqw.Hamiltonian(m)

    def test_default_labels_and_dim(self):
        h = ctqw.Hamiltonian(np.zeros((3, 3)))
        assert h.dim == 3

    def test_graph_kinds(self):
        g = graphs.cycle(4)
        a = graphs.adjacency(g)
        assert np.array_equal(ctqw.graph_hamiltonian(g).matrix, a)
        assert np.array_equal(
            ctqw.graph_hamiltonian(g, "negative-adjacency").matrix, -a)
        lap = ctqw.graph_hamiltonian(g, "laplacian").matrix
        assert np.array_equal(lap, a - 2.0 * np.eye(4))
        with pytest.raises(ValueError, match="kind"):
            ctqw.graph_hamiltonian(g, "transfer")

    def test_search_hamiltonian_entries(self):
        g = graphs.complete(5)
        h = ctqw.search_hamiltonian(g, 0.2, [1, 3])
        expected = -0.2 * graphs.adjacency(g)
        expected[1, 1] -= 1.0
        expected[3, 3] -= 1.0
        assert np.allclose(h.matrix, expected, atol=1e-15)

    def test_search_hamiltonian_validation(self):
        g = graphs.complete(4)
        with pytest.raises(ValueError, match="no marked"):
            ctqw.search_hamiltonian(g, 0.25, [])
        with pytest.raises(ValueError, match="range"):
            ctqw.search_hamiltonian(g, 0.25, [4])

    def test_run_matches_dense_propagator(self):
        h = ctqw.graph_hamiltonian(graphs.hypercube(3), "negative-adjacency")
        psi0 = np.zeros(8)
        psi0[0] = 1.0
        out = ctqw.ctqw_run(h, 1.7, psi0)
        ref = dense_propagator(h.matrix, 1.7) @ psi0
        assert np.max(np.abs(out - ref)) < 1e-12


class TestCycleWavefront:
    def test_origin_at_time_zero(self):
        check = ctqw.cycle_bessel_check(64, 3, 3, 0.0)
        assert abs(check.exact - 1.0) < 1e-12
        assert abs(check.approx - 1.0) < 1e-12

    def test_bessel_j0_of_2_against_series_oracle(self):
        # J_0(2) = sum_k (-1)^k / (k!)^2; alternating with decreasing terms,
        # so the truncation error is below the first omitted term.  Squaring
        # keeps that bound: |a^2 - b^2| = |a - b| |a + b| with a + b < 1.
        total = Fraction(0)
        for k in range(0, 26):
            total += Fraction((-1) ** k, math.factorial(k) ** 2)
        bound = 1.0 / math.factorial(26) ** 2
        approx = ctqw.cycle_bessel_check(64, 0, 0, 1.0).approx
        assert abs(approx - float(total ** 2)) <= bound + 1e-14

    def test_exact_route_matches_dense_evolution(self):
        check = ctqw.cycle_bessel_check(60, 5, 9, 3.0)
        h = ctqw.graph_hamiltonian(graphs.cycle(60), "negative-adjacency")
        psi0 = np.zeros(60)
        psi0[5] = 1.0
        ref = abs(ctqw.ctqw_run(h, 3.0, psi0)[9]) ** 2
        assert abs(check.exact - ref) < 1e-12

    def test_long_cycle_agrees_with_bessel(self):
        # N = 600, t = 20: the squared Bessel law holds to machine
        # precision across the wavefront
        worst = 0.0
        for d in (0, 1, 13, 40, 59):
            check = ctqw.cycle_bessel_check(600, 0, d, 20.0)
            worst = max(worst, check.difference)
        assert worst < 1e-12

    def test_outside_light_cone_is_dark(self):
        check = ctqw.cycle_bessel_check(600, 0, 100, 10.0)
        assert check.exact < 1e-6
        assert check.approx < 1e-6

    def test_negative_displacement(self):
        fwd = ctqw.cycle_bessel_check(400, 200, 215, 6.0)
        back = ctqw.cycle_bessel_check(400, 200, 185, 6.0)
        assert abs(fwd.exact - back.exact) < 1e-14

    def test_wrap_around_refused(self):
        with pytest.raises(ValueError, match="wrap"):
            ctqw.cycle_bessel_check(50, 0, 5, 10.0)

    def test_vertex_range(self):
        with pytest.raises(ValueError, match="range"):
            ctqw.cycle_bessel_check(20, 0, 25, 1.0)


class TestLimitingDistribution:
    # time averaging keeps only same-energy interference, which on a
    # cycle leaves a flat profile plus a bump at the start vertex and,
    # for even rings, at its antipode

    @pytest.mark.parametrize("n", [5, 9])
    def test_odd_cycle_closed_form(self, n):
        h = ctqw.graph_hamiltonian(graphs.cycle(n))
        pi = ctqw.ctqw_limiting(h, 0)
        expected = np.full(n, 1.0 / n - 1.0 / n ** 2)
        expected[0] += 1.0 / n
        assert np.max(np.abs(pi - expected)) < 1e-9

    @pytest.mark.parametrize("n", [6, 8])
    def test_even_cycle_closed_form(self, n):
        h = ctqw.graph_hamiltonian(graphs.cycle(n))
        pi = ctqw.ctqw_limiting(h, 0)
        expected = np.full(n, 1.0 / n - 2.0 / n ** 2)
        expected[0] += 1.0 / n
        expected[n // 2] += 1.0 / n
        assert np.max(np.abs(pi - expected)) < 1e-9

    def test_start_vertex_shift(self):
        h = ctqw.graph_hamiltonian(graphs.cycle(7))
        assert np.max(np.abs(
            ctqw.ctqw_limiting(h, 2) - np.roll(ctqw.ctqw_limiting(h, 0), 2)
        )) < 1e-12

    def test_start_range(self):
        h = ctqw.graph_hamiltonian(graphs.cycle(5))
        with pytest.raises(ValueError, match="range"):
            ctqw.ctqw_limiting(h, 5)

    def test_finite_time_average_converges(self):
        n = 9
        h = ctqw.graph_hamiltonian(graphs.cycle(n))
        big_t = 20.0 * n * math.log(n)
        avg = ctqw.time_averaged_distribution(h, 0, big_t)
        assert abs(avg.sum() - 1.0) < 1e-8
        assert tvd(np.clip(avg, 0.0, None), ctqw.ctqw_limiting(h, 0)) < 0.01

    def test_long_average_reaches_the_limit_through_degenerate_levels(self):
        # the cycle's energies 2cos(2 pi k/9) come in degenerate pairs, equal
        # or a few ulps apart after eigh: g must be 1 (or next to it) across
        # each pair, since the limit keeps the in-level cross terms
        h = ctqw.graph_hamiltonian(graphs.cycle(9))
        avg = ctqw.time_averaged_distribution(h, 0, 1e6)
        assert np.max(np.abs(avg - ctqw.ctqw_limiting(h, 0))) < 1e-6

    def test_long_average_on_a_large_cycle_is_a_distribution(self):
        h = ctqw.graph_hamiltonian(graphs.cycle(64))
        avg = ctqw.time_averaged_distribution(h, 0, 1e6)
        assert abs(avg.sum() - 1.0) < 1e-12

    def test_two_state_average_closed_form(self):
        # H = sigma_x from state 0: p0(t) = cos^2 t, whose average over
        # [0, T] is 1/2 + sin(2T)/(4T)
        h = ctqw.Hamiltonian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        big_t = 3.3
        avg = ctqw.time_averaged_distribution(h, 0, big_t)
        p0 = 0.5 + math.sin(2 * big_t) / (4 * big_t)
        assert abs(avg[0] - p0) < 1e-14
        assert abs(avg[1] - (1.0 - p0)) < 1e-14

    @pytest.mark.parametrize("big_t", [0.0, -1.0, math.nan, math.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_average_time_validation(self, big_t):
        h = ctqw.graph_hamiltonian(graphs.cycle(5))
        with pytest.raises(ValueError, match="positive and finite"):
            ctqw.time_averaged_distribution(h, 0, big_t)


class TestHypercubeTraversal:
    def test_closed_form_against_dense(self):
        n = 6
        h = ctqw.graph_hamiltonian(graphs.hypercube(n), "negative-adjacency")
        psi0 = np.zeros(2 ** n)
        psi0[0] = 1.0
        for t in (0.3, 1.0, math.pi / 2, 2.6):
            ref = abs(ctqw.ctqw_run(h, t, psi0)[2 ** n - 1]) ** 2
            assert abs(ctqw.hypercube_antipode_prob(n, t) - ref) < 1e-10

    def test_perfect_transfer_at_half_pi(self):
        for n in range(1, 11):
            assert abs(ctqw.hypercube_antipode_prob(n, math.pi / 2) - 1.0) < 1e-12
            assert ctqw.hypercube_antipode_prob(n, 0.0) == 0.0

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            ctqw.hypercube_antipode_prob(0, 1.0)


class TestWeightedLine:
    def test_hamiltonian_entries(self):
        line = ctqw.WeightedLine(3, (1.0, 2.0))
        expected = np.array([
            [0.0, -1.0, 0.0],
            [-1.0, 0.0, -2.0],
            [0.0, -2.0, 0.0],
        ])
        assert np.array_equal(line.hamiltonian().matrix, expected)

    def test_validation(self):
        with pytest.raises(ValueError, match="two nodes"):
            ctqw.WeightedLine(1, ())
        with pytest.raises(ValueError, match="one weight per link"):
            ctqw.WeightedLine(3, (1.0,))
        with pytest.raises(ValueError, match="positive"):
            ctqw.WeightedLine(3, (1.0, 0.0))


class TestGluedTrees:
    def test_plain_reduction_shape(self):
        red = ctqw.glued_trees_reduce("plain", 4)
        assert red.line.nodes == 7
        assert len(red.columns) == 7
        assert [len(c) for c in red.columns] == [1, 2, 4, 8, 4, 2, 1]
        assert np.max(np.abs(np.array(red.line.weights) - math.sqrt(2.0))) < 1e-12

    def test_cycle_reduction_shape(self):
        red = ctqw.glued_trees_reduce("cycle", 4, seed=11)
        assert red.line.nodes == 8
        assert [len(c) for c in red.columns] == [1, 2, 4, 8, 8, 4, 2, 1]
        w = red.line.weights
        assert abs(w[3] - 2.0) < 1e-12
        side = math.sqrt(2.0)
        assert all(abs(x - side) < 1e-12 for x in w[:3] + w[4:])

    @pytest.mark.parametrize("kind", ["plain", "cycle"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_column_projection_matches_line(self, kind, n):
        red = ctqw.glued_trees_reduce(kind, n, seed=n)
        assert red.equivalence_error is not None
        assert red.equivalence_error < 1e-8

    def test_large_instance_skips_check(self):
        red = ctqw.glued_trees_reduce("plain", 7)
        assert red.equivalence_error is None
        assert red.line.nodes == 13

    def test_large_instance_builds_no_graph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("full graph built")
        for name in ("glued_trees", "glued_trees_cycle", "tree_columns"):
            monkeypatch.setattr(ctqw._graphs, name, refuse)
        for kind, nodes in (("plain", 13), ("cycle", 14)):
            red = ctqw.glued_trees_reduce(kind, 7, seed=1)
            assert red.line.nodes == nodes
            assert red.graph is red.columns is red.equivalence_error is None

    def test_cycle_variant_still_traverses(self):
        # the random leaf cycle does not close the gap: the walk still
        # reaches the far root with probability well above 1/4
        red = ctqw.glued_trees_reduce("cycle", 6, seed=3)
        h = red.line.hamiltonian().matrix
        psi0 = np.eye(red.line.nodes)[0]
        times = np.linspace(0.0, 24.0, 481)
        exit_prob = np.abs(linalg.evolve_many(h, times, psi0)[:, -1]) ** 2
        assert exit_prob.max() > 0.6

    def test_plain_traversal_peak(self):
        red = ctqw.glued_trees_reduce("plain", 6)
        h = red.line.hamiltonian().matrix
        psi0 = np.eye(red.line.nodes)[0]
        times = np.linspace(0.0, 24.0, 481)
        exit_prob = np.abs(linalg.evolve_many(h, times, psi0)[:, -1]) ** 2
        assert exit_prob.max() > 0.7

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ctqw.glued_trees_reduce("ladder", 4)
        with pytest.raises(ValueError, match="depth"):
            ctqw.glued_trees_reduce("plain", 1)


class TestAnalogSearch:
    def test_initial_overlap(self):
        assert abs(ctqw.analog_search(64, 0.0) - 1.0 / 64) < 1e-15
        assert abs(ctqw.analog_search(64, 0.0, marked=4) - 4.0 / 64) < 1e-15

    def test_certain_success_at_quarter_period(self):
        for n, m in ((64, 1), (128, 2), (50, 5)):
            t_star = math.pi / (2.0 * math.sqrt(m / n))
            assert abs(ctqw.analog_search(n, t_star, m) - 1.0) < 1e-12

    @pytest.mark.parametrize("marked", [[3], [3, 77]])
    def test_matches_dense_complete_graph_evolution(self, marked):
        n = 128
        g = graphs.complete(n)
        h = ctqw.search_hamiltonian(g, 1.0 / n, marked)
        psi = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
        m = len(marked)
        for t in (1.0, 3.7, math.pi / (2.0 * math.sqrt(m / n))):
            out = ctqw.ctqw_run(h, t, psi)
            hit = float(np.sum(np.abs(out[marked]) ** 2))
            assert abs(hit - ctqw.analog_search(n, t, m)) < 1e-9

    def test_dynamics_confined_to_search_plane(self):
        n = 64
        h = ctqw.search_hamiltonian(graphs.complete(n), 1.0 / n, [10])
        s = np.full(n, 1.0 / math.sqrt(n))
        w = np.zeros(n)
        w[10] = 1.0
        out = ctqw.ctqw_run(h, 5.2, s.astype(complex))
        basis = np.linalg.qr(np.stack([s, w], axis=1))[0]
        leak = out - basis @ (basis.conj().T @ out)
        assert np.linalg.norm(leak) < 1e-10

    def test_validation(self):
        for check in (lambda n, m: ctqw.analog_search(n, 1.0, m),
                      ctqw.complete_search_apply):
            with pytest.raises(ValueError, match="two vertices"):
                check(1, 1)
            with pytest.raises(ValueError, match="marked count"):
                check(16, 16)
            with pytest.raises(ValueError, match="marked count"):
                check(16, 0)


class TestStructuredApplies:
    """The matrix-free Hamiltonians against the dense builders."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_hypercube_apply(self, dim):
        h = ctqw.graph_hamiltonian(graphs.hypercube(dim), "negative-adjacency")
        v = np.random.default_rng(dim).normal(size=(h.dim, 3))
        apply = ctqw.hypercube_apply(dim)
        assert np.max(np.abs(apply(v) - h.matrix @ v)) <= 1e-13
        assert np.max(np.abs(apply(v[:, 0]) - h.matrix @ v[:, 0])) <= 1e-13

    @pytest.mark.parametrize("n,marked", [(2, 1), (9, 1), (9, 4), (30, 3)])
    def test_complete_search_apply(self, n, marked):
        h = ctqw.search_hamiltonian(graphs.complete(n), 1.0 / n, range(marked))
        v = np.random.default_rng(n).normal(size=(n, 3))
        apply = ctqw.complete_search_apply(n, marked)
        assert np.max(np.abs(apply(v) - h.matrix @ v)) <= 1e-13
        assert np.max(np.abs(apply(v[:, 0]) - h.matrix @ v[:, 0])) <= 1e-13

    def test_hypercube_apply_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            ctqw.hypercube_apply(0)


def bool_nand(tree):
    if not isinstance(tree, tuple):
        return tree
    return 0 if (bool_nand(tree[0]) and bool_nand(tree[1])) else 1


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.15:
        return int(rng.integers(2))
    return (random_tree(rng, depth - 1), random_tree(rng, depth - 1))


class TestNandTrees:
    def test_single_gate(self):
        for a in (0, 1):
            for b in (0, 1):
                res = ctqw.nand_eval((a, b))
                assert res.bit == res.oracle_bit == (0 if a and b else 1)

    def test_all_depth_two_trees(self):
        for bits in range(16):
            a, b, c, d = ((bits >> i) & 1 for i in range(4))
            tree = ((a, b), (c, d))
            res = ctqw.nand_eval(tree)
            assert res.bit == bool_nand(tree)
            assert res.oracle_bit == bool_nand(tree)

    def test_game_tree_second_player_wins(self):
        tree = (((1, 1), (0, 0)), ((1, 1), (1, 1)))
        res = ctqw.nand_eval(tree)
        assert res.bit == 0
        assert res.trace[-1] > 1.0

    def test_ratio_signs_separate_values(self):
        # value-0 subtrees push the ratio above 1, value-1 subtrees pin
        # it in (-1, 0); the sentinel endpoints are the base cases
        rng = np.random.default_rng(5)
        tree = ctqw.hard_nand_instance(6, rng)
        trace = ctqw.nand_eval(tree).trace
        assert all(x > 1.0 or -1.0 < x < 0.0 for x in trace)

    def test_leaf_and_shape_validation(self):
        with pytest.raises(ValueError, match="two children"):
            ctqw.nand_eval((0, 1, 1))
        with pytest.raises(ValueError, match="bit"):
            ctqw.nand_eval((0, 2))

    def test_hard_instance_respects_requested_value(self):
        rng = np.random.default_rng(9)
        for value in (0, 1):
            for _ in range(20):
                tree = ctqw.hard_nand_instance(4, rng, value=value)
                assert bool_nand(tree) == value

    def test_hard_instance_children_rule(self):
        rng = np.random.default_rng(2)
        tree = ctqw.hard_nand_instance(3, rng, value=0)
        assert sorted(bool_nand(c) for c in tree) == [1, 1]
        tree = ctqw.hard_nand_instance(3, rng, value=1)
        assert sorted(bool_nand(c) for c in tree) == [0, 1]

    def test_classical_cost_short_circuit(self):
        rng = np.random.default_rng(1)
        assert ctqw.classical_nand_cost((0, 0), rng, 50) == 1.0
        assert ctqw.classical_nand_cost((1, 1), rng, 50) == 2.0
        mixed = ctqw.classical_nand_cost((0, 1), rng, 4000)
        assert abs(mixed - 1.5) < 0.1

    def test_all_zero_tree_cost(self):
        tree = 0
        for _ in range(8):
            tree = (tree, tree)
        rng = np.random.default_rng(0)
        # alternate levels short-circuit, so exactly sqrt(256) leaves
        assert ctqw.classical_nand_cost(tree, rng, 3) == 16.0

    def test_hard_instances_cost_window(self):
        # depth 8, N = 256 leaves: randomized evaluation on trees from
        # the adversarial distribution costs N^0.753 on average, which
        # lands between N^0.70 and N^0.80; iid-uniform leaves would fall
        # below this window
        rng = np.random.default_rng(77)
        total = 0.0
        instances = 300
        for _ in range(instances):
            tree = ctqw.hard_nand_instance(8, rng)
            total += ctqw.classical_nand_cost(tree, rng, 2)
        mean = total / instances
        assert 256 ** 0.70 < mean < 256 ** 0.80


class TestRandomizedProperties:
    def test_transition_amplitudes_are_symmetric(self):
        # real symmetric generators give a symmetric propagator, so the
        # x -> y and y -> x amplitudes agree exactly
        rng = np.random.default_rng(31)
        for _ in range(40):
            dim = int(rng.integers(2, 13))
            m = rng.normal(size=(dim, dim))
            h = ctqw.Hamiltonian(m + m.T)
            t = float(rng.uniform(0.0, 5.0))
            x, y = rng.integers(dim, size=2)
            ex, ey = np.eye(dim)[x], np.eye(dim)[y]
            fwd = ctqw.ctqw_run(h, t, ex)
            back = ctqw.ctqw_run(h, t, ey)
            assert abs(fwd[y] - back[x]) < 1e-10
            assert abs(np.linalg.norm(fwd) - 1.0) < 1e-10

    def test_random_nand_trees_match_boolean(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            tree = (random_tree(rng, 4), random_tree(rng, 4))
            res = ctqw.nand_eval(tree)
            assert res.bit == bool_nand(tree)
            assert all(x > 1.0 or -1.0 < x < 0.0 for x in res.trace)

    def test_limiting_distributions_are_distributions(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            dim = int(rng.integers(3, 10))
            a = (rng.random(size=(dim, dim)) < 0.5).astype(float)
            a = np.triu(a, 1)
            h = ctqw.Hamiltonian(a + a.T)
            start = int(rng.integers(dim))
            pi = ctqw.ctqw_limiting(h, start)
            assert np.all(pi > -1e-12)
            assert abs(pi.sum() - 1.0) < 1e-10
            shifted = ctqw.Hamiltonian(h.matrix + 3.0 * np.eye(dim))
            assert np.max(np.abs(pi - ctqw.ctqw_limiting(shifted, start))) < 1e-9
