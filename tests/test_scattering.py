"""Edge-state walk construction, invariant-subspace reductions, and the
two graph-search algorithms."""

import cmath
import math

import numpy as np
import pytest

from helpers import arc_index
from walklab import coined, graphs, scattering as sc


def complete_bipartite(n1, n2):
    """Each of the first n1 vertices joined to each of the next n2."""
    return graphs.Graph(n1 + n2,
                        [(i, n1 + j) for i in range(n1) for j in range(n2)])


def complete_coins(n, k, phase):
    coins = {v: sc.reflective_coin(phase) for v in range(k)}
    for v in range(k, n):
        coins[v] = sc.grover_coin()
    return coins


class TestEdgeBasis:
    def test_lexicographic_order_and_size(self):
        g = graphs.cycle(4)
        arcs = graphs.arcs(g)
        assert len(arcs) == 2 * len(g.pairs)
        assert arcs.tolist() == sorted(arcs.tolist())
        assert arcs[0].tolist() == [0, 1]
        assert arc_index(arcs)[(3, 0)] == 6

    def test_loops_contribute_one_state(self):
        g = graphs.complete(4, loops=True)
        arcs = graphs.arcs(g)
        assert len(arcs) == 2 * len(g.pairs) + 4
        assert (2, 2) in arc_index(arcs)

    def test_edge_space_matches_position_coin_space_on_regular_graphs(self):
        for g, d in [(graphs.cycle(8), 2), (graphs.complete(6), 5),
                     (graphs.hypercube(3), 3)]:
            assert len(graphs.arcs(g)) == g.n * d
            assert sc.sqw_build(g, sc.grover_coin()).dim == g.n * d


class TestLocalCoins:
    def test_grover_coin_matrix(self):
        m = sc.grover_coin().matrix(4)
        assert np.allclose(m, 0.5 * np.ones((4, 4)) - np.eye(4))

    def test_reflective_coin_is_phase_times_identity(self):
        m = sc.reflective_coin(0.7).matrix(3)
        assert np.allclose(m, cmath.exp(0.7j) * np.eye(3))

    def test_custom_coin_needs_degree_two(self):
        with pytest.raises(ValueError, match="degree-2"):
            sc.custom_coin(0.5).matrix(3)

    def test_custom_coin_rejects_reflection_outside_unit_interval(self):
        with pytest.raises(ValueError, match="reflection"):
            sc.custom_coin(1.5).matrix(2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            sc.LocalCoin("daft").matrix(2)

    def test_all_kinds_give_unitary_matrices(self):
        for coin, d in [(sc.grover_coin(), 5), (sc.reflective_coin(1.2), 4),
                        (sc.custom_coin(-0.6), 2)]:
            m = coin.matrix(d)
            assert np.max(np.abs(m.conj().T @ m - np.eye(d))) < 1e-12


class TestBuild:
    def test_full_operator_is_unitary(self):
        for g, coins in [
            (graphs.cycle(7), sc.grover_coin()),
            (graphs.complete(6), complete_coins(6, 2, 1.1)),
            (graphs.star_extra_edge(8), sc.star_coins(8, 0.4)),
        ]:
            u = sc.sqw_build(g, coins).dense()
            assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-12

    def test_scattering_stays_at_the_vertex(self):
        # everything arriving at a vertex leaves through that same vertex
        op = sc.sqw_build(complete_bipartite(3, 4), sc.grover_coin())
        u = op.dense()
        arcs = op.arcs.tolist()
        for i, (ak, al) in enumerate(arcs):
            for j, (bs, bd) in enumerate(arcs):
                if abs(u[j, i]) > 1e-14:
                    assert bs == al

    def test_line_with_half_transmitting_interior(self):
        g = graphs.line(7)
        coins = {v: sc.custom_coin(1 / math.sqrt(2)) for v in range(1, 6)}
        coins[0] = sc.reflective_coin(0.0)
        coins[6] = sc.reflective_coin(0.0)
        op = sc.sqw_build(g, coins)
        b = arc_index(op.arcs)
        r2 = 1 / math.sqrt(2)
        v = np.zeros(op.dim, complex)
        v[b[(2, 3)]] = 1.0
        w = op.step(v)
        assert abs(w[b[(3, 2)]] - r2) < 1e-12
        assert abs(w[b[(3, 4)]] - r2) < 1e-12
        v = np.zeros(op.dim, complex)
        v[b[(4, 3)]] = 1.0
        w = op.step(v)
        assert abs(w[b[(3, 2)]] - r2) < 1e-12
        assert abs(w[b[(3, 4)]] + r2) < 1e-12

    def test_reflective_pi_flips_the_amplitude(self):
        g = graphs.line(3)
        coins = {0: sc.reflective_coin(math.pi), 1: sc.grover_coin(),
                 2: sc.reflective_coin(0.0)}
        op = sc.sqw_build(g, coins)
        b = arc_index(op.arcs)
        v = np.zeros(op.dim, complex)
        v[b[(1, 0)]] = 1.0
        w = op.step(v)
        assert abs(w[b[(0, 1)]] + 1.0) < 1e-12

    def test_non_unitary_local_map_rejected(self):
        class Leaky(sc.LocalCoin):
            def matrix(self, degree):
                return 0.5 * np.eye(degree)

        with pytest.raises(ValueError, match="not unitary"):
            sc.sqw_build(graphs.cycle(4), Leaky("grover"))

    def test_state_shape_checked(self):
        op = sc.sqw_build(graphs.cycle(4), sc.grover_coin())
        with pytest.raises(ValueError, match="edge basis"):
            op.step(np.zeros(5))

    def test_isolated_vertex_rejected(self):
        g = graphs.Graph(3, ((0, 1),))
        with pytest.raises(ValueError, match="no edges"):
            sc.sqw_build(g, sc.grover_coin())


class TestCompleteGraphReduction:
    def test_small_case_coefficients(self):
        red = sc.reduce_complete_graph(7, 2, math.pi)
        assert red.labels == ("um", "mu", "uu", "mm")
        assert abs(red.reduced[0, 1] + 1 / 3) < 1e-12
        assert abs(red.reduced[2, 1] - math.sqrt(8) / 3) < 1e-12

    def test_vectors_orthonormal(self):
        for n, k in [(5, 1), (9, 3), (12, 5)]:
            v = sc.reduce_complete_graph(n, k, 0.3).vectors
            gram = v.T @ v
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_single_marked_vertex_drops_internal_class(self):
        red = sc.reduce_complete_graph(9, 1, math.pi)
        assert red.labels == ("um", "mu", "uu")
        assert red.reduced.shape == (3, 3)

    def test_reduced_operator_unitary(self):
        for n, k, phi in [(6, 2, 0.0), (10, 4, 2.2), (12, 1, math.pi)]:
            r = sc.reduce_complete_graph(n, k, phi).reduced
            assert np.max(np.abs(r.conj().T @ r - np.eye(len(r)))) < 1e-12

    def test_subspace_invariant_under_full_operator(self):
        for n in (5, 8, 12):
            for k in (1, 2, 3):
                red = sc.reduce_complete_graph(n, k, math.pi)
                u = sc.sqw_build(graphs.complete(n),
                                 complete_coins(n, k, math.pi)).dense()
                assert np.max(np.abs(u @ red.vectors
                                     - red.vectors @ red.reduced)) < 1e-8

    def test_reduced_evolution_matches_full_simulation(self):
        for n, k in [(6, 2), (9, 1), (12, 3)]:
            red = sc.reduce_complete_graph(n, k, math.pi)
            op = sc.sqw_build(graphs.complete(n),
                              complete_coins(n, k, math.pi))
            psi_full = np.full(op.dim, 1 / math.sqrt(op.dim), dtype=complex)
            psi_red = red.vectors.T @ psi_full
            for _ in range(15):
                proj = red.vectors.T @ psi_full
                assert np.max(np.abs(proj - psi_red)) < 1e-10
                psi_full = op.step(psi_full)
                psi_red = red.reduced @ psi_red

    def test_leakage_out_of_the_subspace_stays_tiny(self):
        red = sc.reduce_complete_graph(12, 2, math.pi)
        u = sc.sqw_build(graphs.complete(12),
                         complete_coins(12, 2, math.pi)).dense()
        v = red.vectors
        rng = np.random.default_rng(3)
        psi = v @ (rng.normal(size=4) + 1j * rng.normal(size=4))
        psi /= np.linalg.norm(psi)
        for _ in range(20):
            psi = u @ psi
            leak = np.linalg.norm(psi - v @ (v.T @ psi))
            assert leak < 1e-9

    def test_zero_phase_keeps_uniform_state_fixed(self):
        n, k = 8, 2
        op = sc.sqw_build(graphs.complete(n), complete_coins(n, k, 0.0))
        psi = np.full(op.dim, 1 / math.sqrt(op.dim), dtype=complex)
        out = op.step(psi)
        assert np.max(np.abs(out - psi)) < 1e-12
        assert np.max(np.abs(op.position_distribution(out)
                             - op.position_distribution(psi))) < 1e-12

    def test_marked_to_marked_class_only_picks_up_the_phase(self):
        phi = 1.9
        red = sc.reduce_complete_graph(10, 3, phi)
        col = red.reduced[:, 3]
        assert abs(col[3] - cmath.exp(1j * phi)) < 1e-12
        assert np.max(np.abs(col[:3])) == 0.0
        u = sc.sqw_build(graphs.complete(10),
                         complete_coins(10, 3, phi)).dense()
        w4 = red.vectors[:, 3].astype(complex)
        assert np.max(np.abs(u @ w4 - cmath.exp(1j * phi) * w4)) < 1e-10

    def test_swapping_two_unmarked_vertices_commutes_with_the_walk(self):
        n, k = 8, 2
        op = sc.sqw_build(graphs.complete(n), complete_coins(n, k, math.pi))
        b = arc_index(op.arcs)
        swap = {5: 6, 6: 5}
        relab = lambda v: swap.get(v, v)
        p = np.zeros((op.dim, op.dim))
        for (s, d), i in b.items():
            p[b[(relab(s), relab(d))], i] = 1.0
        u = op.dense()
        assert np.max(np.abs(u @ p - p @ u)) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="three"):
            sc.reduce_complete_graph(2, 1, 0.0)
        with pytest.raises(ValueError, match="marked"):
            sc.reduce_complete_graph(6, 0, 0.0)
        with pytest.raises(ValueError, match="marked"):
            sc.reduce_complete_graph(6, 6, 0.0)


class TestCompleteGraphSearch:
    def test_single_target_on_hundred_vertices(self):
        res = sc.complete_graph_search(100, 1)
        assert res.steps == 11
        assert res.success >= 0.95

    def test_running_twice_as_long_overshoots(self):
        res = sc.complete_graph_search(100, 1)
        late = sc.complete_graph_search(100, 1, steps=2 * res.steps)
        assert res.success > late.success

    def test_auto_step_count_formula(self):
        assert sc.complete_graph_search(100, 4).steps == \
            int(math.floor(math.pi / (2 * math.sqrt(2)) * 5 + 0.5))
        assert sc.complete_graph_search(64, 1).steps == \
            int(math.floor(math.pi / (2 * math.sqrt(2)) * 8 + 0.5))

    def test_window_optimum_at_least_as_good(self):
        res = sc.complete_graph_search(50, 2)
        assert res.best_success >= res.success - 1e-15

    def test_rotation_angle_from_reduced_eigenphases(self):
        for n, k in [(100, 1), (64, 4), (30, 3)]:
            red = sc.reduce_complete_graph(n, k, math.pi)
            phases = np.angle(np.linalg.eigvals(red.reduced))
            theta = min(p for p in phases if p > 1e-9)
            expected = math.atan(math.sqrt(k * (2 * n - k - 2)) / (n - k - 1))
            assert abs(theta - expected) < 1e-9

    def test_trajectory_matches_matrix_powers(self):
        n, k = 50, 2
        res = sc.complete_graph_search(n, k)
        red = sc.reduce_complete_graph(n, k, math.pi)
        psi0 = np.sqrt(np.count_nonzero(red.vectors, axis=0) / (n * (n - 1)))
        touching = [i for i, lab in enumerate(red.labels) if "m" in lab]
        assert res.labels == red.labels
        assert len(res.successes) == math.ceil(1.2 * res.steps) + 2
        for m, probs in enumerate(res.probabilities):
            want = np.abs(np.linalg.matrix_power(red.reduced, m) @ psi0) ** 2
            assert np.max(np.abs(probs - want)) < 1e-12
            assert abs(res.successes[m] - want[touching].sum()) < 1e-12
        assert res.success == res.successes[res.steps]
        assert res.best_success == max(res.successes[int(0.8 * res.steps):-1])

    def test_explicit_step_count_respected(self):
        res = sc.complete_graph_search(36, 1, steps=3)
        assert res.steps == 3


class TestStarSearch:
    def test_reduced_operator_unitary_for_many_reflections(self):
        for n in (5, 20, 101):
            for r0 in (-1.0, -0.3, 0.0, 0.5, 0.99):
                res = sc.star_graph_search(n, r0)
                assert res.trajectory.shape[1] == 5
                norms = np.linalg.norm(res.trajectory, axis=1)
                assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_triangle_probability_splits_in_thirds(self):
        res = sc.star_graph_search(400, 0.0)
        assert res.triangle_probability >= 0.95
        assert len(res.triangle_series) == res.opt_steps + 1
        assert res.triangle_series[-1] == res.triangle_probability
        last = res.trajectory[-1]
        for comp in (last[0] ** 2, last[1] ** 2, last[4] ** 2):
            assert abs(comp - 1 / 3) < 0.05

    def test_fully_transmitting_spikes_recover_square_root_step_count(self):
        res = sc.star_graph_search(400, -1.0)
        assert res.opt_steps == int(math.floor(math.pi * math.sqrt(50) + 0.5))

    def test_step_count_tracks_the_interpolation_parameter(self):
        n = 300
        for r0 in (-1.0, 0.0, 0.7):
            delta = math.sqrt(2 * (1 - r0) / (3 - r0))
            want = int(math.floor(math.pi / delta * math.sqrt(n / 8) + 0.5))
            assert sc.star_graph_search(n, r0).opt_steps == want

    def test_step_cap_keeps_every_r0_up_to_zero(self):
        # the optimum grows with n and r0: star-search accepts n <= 10^9,
        # where r0 = 0 needs 43,018 steps; near r0 = 1 it grows without bound
        assert sc.star_graph_search(10 ** 9, 0.0).opt_steps == 43018
        with pytest.raises(ValueError, match="2221441 steps"):
            sc.star_graph_search(400, 1 - 1e-10)

    def test_sealed_spikes_rejected(self):
        with pytest.raises(ValueError, match="invisible"):
            sc.star_graph_search(50, 1.0)

    def test_parameter_range_checked(self):
        with pytest.raises(ValueError, match="r0"):
            sc.star_graph_search(50, -1.5)
        with pytest.raises(ValueError, match="three"):
            sc.star_graph_search(2, 0.0)

    def test_reduced_trajectory_matches_full_edge_space(self):
        n, r0 = 12, 0.3
        g = graphs.star_extra_edge(n)
        op = sc.sqw_build(g, sc.star_coins(n, r0))
        v = sc.star_invariant_vectors(g)
        assert np.max(np.abs(v.T @ v - np.eye(5))) < 1e-12
        res = sc.star_graph_search(n, r0)
        psi = (v @ res.trajectory[0]).astype(complex)
        for m in range(len(res.trajectory)):
            assert np.max(np.abs(v.T @ psi - res.trajectory[m])) < 1e-9
            psi = op.step(psi)

    def test_best_window_step_reported(self):
        res = sc.star_graph_search(200, 0.0)
        assert abs(res.best_steps - res.opt_steps) <= math.ceil(0.2 * res.opt_steps) + 1


class TestCoinedCorrespondence:
    def test_cycle_six_walks_agree(self):
        # A coined walk |x, c> and an edge walk |came-from, x> are the same
        # dynamics written in different bases.  The custom coin sorts its
        # neighbors, so the translated position-dependent coin flips sign
        # at the two vertices where the cycle wraps around.
        n = 6
        g = graphs.cycle(n)
        r0 = t0 = 1 / math.sqrt(2)
        op_s = sc.sqw_build(g, sc.custom_coin(r0))
        b = arc_index(op_s.arcs)

        def coin_for(x):
            if min((x - 1) % n, (x + 1) % n) == (x - 1) % n:
                return coined.Coin(2, np.array([[t0, -r0], [r0, t0]]))
            return coined.Coin(2, np.array([[t0, r0], [-r0, t0]]))

        op_c = coined.CoinedWalkOperator(g, [coin_for(x) for x in range(n)])

        def to_edge(psi):
            phi = np.zeros(op_s.dim, complex)
            for x in range(n):
                phi[b[((x - 1) % n, x)]] = psi[x, 0]
                phi[b[((x + 1) % n, x)]] = psi[x, 1]
            return phi

        rng = np.random.default_rng(7)
        psi = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        psi /= np.linalg.norm(psi)
        phi = to_edge(psi)
        for _ in range(25):
            assert np.max(np.abs(to_edge(psi) - phi)) < 1e-12
            pc = (np.abs(psi) ** 2).sum(axis=1)
            assert np.max(np.abs(pc - op_s.position_distribution(phi))) < 1e-12
            psi = op_c.step(psi)
            phi = op_s.step(phi)


class TestRandomizedProperties:
    def test_random_graphs_and_coins(self):
        rng = np.random.default_rng(90125)
        builders = [
            lambda r: graphs.cycle(int(r.integers(3, 9))),
            lambda r: graphs.complete(int(r.integers(3, 7))),
            lambda r: complete_bipartite(int(r.integers(2, 4)),
                                         int(r.integers(2, 4))),
            lambda r: graphs.star_extra_edge(int(r.integers(3, 7))),
            lambda r: graphs.hypercube(int(r.integers(2, 4))),
        ]
        cases = 0
        for trial in range(110):
            g = builders[trial % len(builders)](rng)
            degs = graphs.degrees(g)
            coins = {}
            for v in range(g.n):
                pick = rng.integers(3)
                if pick == 2 and degs[v] == 2:
                    coins[v] = sc.custom_coin(float(rng.uniform(-1, 1)))
                elif pick == 1:
                    coins[v] = sc.reflective_coin(float(rng.uniform(0, 2 * math.pi)))
                else:
                    coins[v] = sc.grover_coin()
            op = sc.sqw_build(g, coins)
            u = op.dense()
            assert np.max(np.abs(u.conj().T @ u - np.eye(op.dim))) < 1e-10
            psi = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            psi /= np.linalg.norm(psi)
            out = op.step(psi)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10
            assert abs(op.position_distribution(out).sum() - 1.0) < 1e-10
            # each column only feeds edges leaving the scattering vertex
            src, dst = op.arcs.T
            for i in rng.choice(op.dim, size=3, replace=False):
                hit = np.abs(u[:, i]) > 1e-14
                assert np.all(src[hit] == dst[i])
            cases += 1
        assert cases >= 100

    def test_random_reductions_stay_invariant(self):
        rng = np.random.default_rng(777)
        for _ in range(40):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(1, n - 1))
            phi = float(rng.uniform(0, 2 * math.pi))
            red = sc.reduce_complete_graph(n, k, phi)
            nw = len(red.labels)
            gram = red.vectors.T @ red.vectors
            assert np.max(np.abs(gram - np.eye(nw))) < 1e-10
            u = sc.sqw_build(graphs.complete(n),
                             complete_coins(n, k, phi)).dense()
            assert np.max(np.abs(u @ red.vectors
                                 - red.vectors @ red.reduced)) < 1e-8
