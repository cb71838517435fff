"""Classical walk machinery: chains, limits, hitting, and the walk-based
algorithms."""

import math

import numpy as np
import pytest

from walklab import classical as cl
from walklab import graphs
from walklab.distributions import dist_stats, tvd
from walklab.special import catalan


def delta(n, i):
    p = np.zeros(n)
    p[i] = 1.0
    return p


# chains and evolution


def test_unbiased_chain_is_column_stochastic():
    for build in (graphs.line(7), graphs.cycle(6), graphs.complete(5, loops=True),
                  graphs.hypercube(4), graphs.star_extra_edge(6)):
        m = cl.unbiased_chain(build).matrix
        assert np.all(m >= 0)
        assert np.max(np.abs(m.sum(axis=0) - 1.0)) < 1e-12


def test_isolated_vertex_rejected():
    g = graphs.Graph(3, frozenset({(0, 1)}), frozenset())
    with pytest.raises(ValueError):
        cl.unbiased_chain(g)


def test_two_step_line_walk_exact():
    chain = cl.unbiased_chain(graphs.line(5))
    p = cl.evolve(chain, delta(5, 2), 2)
    assert np.allclose(p, [0.25, 0.0, 0.5, 0.0, 0.25], atol=1e-15)


def test_evolve_matches_binomial_at_m_100():
    # dual route: repeated matrix application against the closed form
    m = 100
    chain = cl.unbiased_chain(graphs.line(2 * m + 5))
    p = cl.evolve(chain, delta(2 * m + 5, m + 2), m)
    _, binom = cl.line_walk_binomial(m)
    assert tvd(p[2 : 2 * m + 3], binom) < 1e-12


def test_binomial_variance_and_parity():
    for m in (25, 100, 400):
        positions, probs = cl.line_walk_binomial(m)
        stats = dist_stats(positions, probs)
        assert abs(stats.variance / m - 1.0) < 1e-9
        odd = (m + positions) % 2 == 1
        assert np.all(probs[odd] == 0.0)


def test_gaussian_envelope_close_at_m_100():
    m = 100
    positions, probs = cl.line_walk_binomial(m)
    approx = cl.line_walk_gaussian(m, positions)
    assert tvd(probs, approx / approx.sum()) < 0.02


def test_evolve_rejects_bad_input():
    chain = cl.unbiased_chain(graphs.cycle(4))
    with pytest.raises(ValueError):
        cl.evolve(chain, delta(4, 0), -1)
    with pytest.raises(ValueError):
        cl.evolve(chain, delta(5, 0), 1)


# stationary distribution and spectrum


def test_star_stationary_distribution():
    chain = cl.unbiased_chain(graphs.complete_bipartite(1, 4))
    res = cl.stationary_and_limit(chain)
    assert np.allclose(res.pi, [0.5, 0.125, 0.125, 0.125, 0.125], atol=1e-14)
    assert res.bipartite


def test_stationary_by_power_iteration():
    # oracle: iterate the chain 1e4 steps from a lopsided start
    chain = cl.unbiased_chain(graphs.cycle(5))
    res = cl.stationary_and_limit(chain)
    p = cl.evolve(chain, delta(5, 1), 10_000)
    assert tvd(p, res.pi) < 1e-6
    assert tvd(chain.matrix @ res.pi, res.pi) < 1e-12


def test_spectrum_range_and_bipartite_flag():
    for g, bip in ((graphs.cycle(6), True), (graphs.cycle(7), False),
                   (graphs.hypercube(3), True), (graphs.complete(6), False)):
        res = cl.stationary_and_limit(cl.unbiased_chain(g))
        assert res.spectrum[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.spectrum >= -1.0 - 1e-12)
        assert res.bipartite == bip
        assert res.bipartite == (abs(res.spectrum[-1] + 1.0) < 1e-12)


# mixing


def test_mixing_complete_graph_with_loops():
    chain = cl.unbiased_chain(graphs.complete(8, loops=True))
    res = cl.mixing_time(chain, delta(8, 0), 0.01, t_max=200)
    assert res.steps <= 10


def test_mixing_bound_below_measured_on_cycle():
    chain = cl.unbiased_chain(graphs.cycle(7))
    res = cl.mixing_time(chain, delta(7, 0), 0.05, t_max=2000)
    assert 0.0 < res.spectral_bound <= res.steps


def test_trivial_epsilon_mixes_immediately():
    chain = cl.unbiased_chain(graphs.complete(8, loops=True))
    assert cl.mixing_time(chain, delta(8, 0), 2.0, t_max=50).steps == 0


def test_bipartite_chain_never_mixes():
    chain = cl.unbiased_chain(graphs.cycle(4))
    with pytest.raises(ValueError, match="bipartite"):
        cl.mixing_time(chain, delta(4, 0), 0.1, t_max=100)


# hitting times


def test_first_hit_distribution_matches_catalan_form():
    # exact first-passage law from one site away: f(2k+1) = C_k / 2^(2k+1)
    chain = cl.unbiased_chain(graphs.line(80))
    f = cl.first_hit_distribution(chain, 1, 0, 61)
    for k in range(30):
        assert f[2 * k + 1] == pytest.approx(catalan(k) / 2.0 ** (2 * k + 1),
                                             abs=1e-14)
        assert f[2 * k] == 0.0


def test_half_line_hitting_mean_diverges_with_horizon():
    chain = cl.unbiased_chain(graphs.line(301))
    short = cl.hitting_time(chain, 1, 0, horizon=1000)
    long = cl.hitting_time(chain, 1, 0, horizon=10_000)
    assert long.mean_truncated > 2.5 * short.mean_truncated
    assert 1.0 - long.tail_mass > 0.99


def test_restart_estimate():
    g = graphs.complete(2, loops=True)
    matrix = np.array([[0.75, 0.0], [0.25, 1.0]])
    chain = cl.MarkovChain(matrix, g)
    res = cl.hitting_time(chain, 0, 1, horizon=1)
    assert res.restart_estimate == pytest.approx(4.0, abs=1e-12)


def test_hitting_start_equals_target():
    chain = cl.unbiased_chain(graphs.cycle(5))
    assert cl.hitting_time(chain, 3, 3) == (0.0, 0.0, 1.0)


def test_absorbing_hit_prob_line_closed_form():
    # frozen Monte Carlo oracle, 1e6 walkers each, vectorized chunks:
    #   p_away=1/3, seed 20260825 -> 1.000000
    #   p_away=2/3, seed 20260826 -> 0.499991
    assert abs(cl.absorbing_hit_prob_line(1.0 / 3.0) - 1.000000) <= 0.003
    assert abs(cl.absorbing_hit_prob_line(2.0 / 3.0) - 0.499991) <= 0.003
    assert cl.absorbing_hit_prob_line(0.5) == 1.0
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            cl.absorbing_hit_prob_line(bad)


def test_absorbing_hit_prob_small_monte_carlo():
    # independent sampling route, 2e5 walkers per probe
    rng = np.random.default_rng(99)
    for p_away in (1.0 / 3.0, 2.0 / 3.0):
        pos = np.ones(200_000, dtype=np.int64)
        alive = np.ones(pos.size, dtype=bool)
        hits = 0
        for _ in range(3000):
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            pos[idx] += np.where(rng.random(idx.size) < p_away, 1, -1)
            arrived = idx[pos[idx] == 0]
            escaped = idx[pos[idx] >= 60]
            hits += arrived.size
            alive[arrived] = False
            alive[escaped] = False
        estimate = hits / pos.size
        assert abs(estimate - cl.absorbing_hit_prob_line(p_away)) < 0.005


# 2-SAT random flips


def test_two_sat_single_clause():
    f = cl.SatFormula(1, ((1, 1),))
    assert cl.two_sat_walk(f, 0) == (1,)
    assert f.check((1,))


def test_two_sat_unsatisfiable_pair():
    f = cl.SatFormula(1, ((1, 1), (-1, -1)))
    for seed in range(20):
        assert cl.two_sat_walk(f, seed) is None


def test_two_sat_random_satisfiable_instances():
    rng = np.random.default_rng(7)
    n = 20
    hidden = rng.integers(2, size=n)
    clauses = []
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        li = int(i + 1) if rng.integers(2) else -int(i + 1)
        lj = int(j + 1) if rng.integers(2) else -int(j + 1)
        if not (cl._lit_value(li, hidden) or cl._lit_value(lj, hidden)):
            li = int(i + 1) if hidden[i] else -int(i + 1)
        clauses.append((li, lj))
    f = cl.SatFormula(n, tuple(clauses))
    assert f.check(tuple(hidden))
    successes = 0
    for seed in range(200):
        result = cl.two_sat_walk(f, seed)
        if result is not None:
            assert f.check(result)
            successes += 1
    assert successes >= 100


def test_sat_formula_validation():
    with pytest.raises(ValueError):
        cl.SatFormula(2, ((1, 2, 1),))
    with pytest.raises(ValueError):
        cl.SatFormula(2, ((0, 1),))
    with pytest.raises(ValueError):
        cl.SatFormula(2, ((3, 1),))


# memory-assisted traversals


def test_hypercube_traversal_always_exits():
    n = 10
    for seed in range(100):
        path = cl.traverse_hypercube_memory(n, seed)
        assert len(path) == n + 1
        assert path[0] == 0
        assert path[-1] == 2**n - 1
        weights = [bin(v).count("1") for v in path]
        assert weights == list(range(n + 1))


def test_glued_trees_traversal_small():
    g = graphs.glued_trees(2)
    vertex, steps = cl.traverse_glued_trees_memory(g, 0)
    assert vertex == g.n - 1
    assert steps == 2


def test_glued_trees_traversal_quadratic_budget():
    for n in (4, 6):
        g = graphs.glued_trees(n)
        for seed in range(50):
            vertex, steps = cl.traverse_glued_trees_memory(g, seed)
            assert vertex == g.n - 1
            assert steps <= 10 * n * n


def test_glued_trees_traversal_out_of_budget_is_a_bad_request():
    with pytest.raises(ValueError, match="max_steps=0"):
        cl.traverse_glued_trees_memory(graphs.glued_trees(4), 0, max_steps=0)


# Metropolis sampling and annealing


def test_metropolis_accepts_everything_at_beta_zero():
    model = cl.EnergyModel(2, lambda s: float(s), lambda s, r: 1 - s)
    _, accepted = cl.metropolis_chain(model, 0.0, 1000, 3)
    assert accepted == 1000


def test_metropolis_two_state_occupancy():
    model = cl.EnergyModel(2, lambda s: float(s), lambda s, r: 1 - s)
    samples, _ = cl.metropolis_chain(model, 1.0, 1_000_000, 11)
    ratio = np.mean(samples == 1) / np.mean(samples == 0)
    assert abs(ratio - math.exp(-1.0)) / math.exp(-1.0) < 0.02


def test_metropolis_three_state_detailed_balance():
    energies = [0.0, 0.4, 1.1]
    beta = 1.3
    # induced kernel for the uniform two-choice proposal, checked against
    # the Gibbs weights term by term
    kernel = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                kernel[j, i] = 0.5 * min(1.0, math.exp(-beta * (energies[j] - energies[i])))
        kernel[i, i] = 1.0 - kernel[:, i].sum()
    gibbs = np.exp(-beta * np.asarray(energies))
    gibbs /= gibbs.sum()
    for i in range(3):
        for j in range(3):
            assert kernel[j, i] * gibbs[i] == pytest.approx(kernel[i, j] * gibbs[j],
                                                            abs=1e-15)
    # sampling route: empirical transition frequencies match the kernel
    def propose(s, r):
        return int((s + 1 + r.integers(2)) % 3)

    model = cl.EnergyModel(3, lambda s: energies[s], propose)
    samples, _ = cl.metropolis_chain(model, beta, 300_000, 17)
    counts = np.zeros((3, 3))
    for a, b in zip(samples[:-1], samples[1:]):
        counts[b, a] += 1
    freq = counts / counts.sum(axis=0, keepdims=True)
    assert np.max(np.abs(freq - kernel)) < 0.01


def test_metropolis_rejects_negative_beta():
    model = cl.EnergyModel(2, lambda s: float(s), lambda s, r: 1 - s)
    with pytest.raises(ValueError):
        cl.metropolis_chain(model, -0.1, 10, 0)


def test_metropolis_rejects_negative_step_count():
    model = cl.EnergyModel(2, lambda s: float(s), lambda s, r: 1 - s)
    with pytest.raises(ValueError, match="step count"):
        cl.metropolis_chain(model, 1.0, -1, 0)


def test_annealing_finds_quadratic_minimum():
    model = cl.EnergyModel(16, lambda s: 0.5 * (s - 5) ** 2,
                           lambda s, r: (s + (1 if r.random() < 0.5 else -1)) % 16)
    finals = [cl.simulated_annealing(model, 4.0, 0.8, 0.05, 200, seed)
              for seed in range(50)]
    assert all(f == 5 for f in finals)


def test_annealing_zero_rounds_when_start_below_floor():
    model = cl.EnergyModel(16, lambda s: float(s), lambda s, r: (s + 1) % 16)
    rng = np.random.default_rng(0)
    expected = int(rng.integers(16))
    assert cl.simulated_annealing(model, 1.0, 0.5, 2.0, 10, 0) == expected


def test_annealing_parameter_validation():
    model = cl.EnergyModel(2, lambda s: float(s), lambda s, r: 1 - s)
    with pytest.raises(ValueError):
        cl.simulated_annealing(model, 1.0, 1.5, 0.1, 10, 0)
    with pytest.raises(ValueError):
        cl.simulated_annealing(model, 1.0, 0.5, 0.0, 10, 0)


# telescoping partition estimator


def four_state_model():
    energies = [0.0, 1.0, 2.0, 3.0]
    return cl.EnergyModel(4, lambda s: energies[s],
                          lambda s, r: int(r.integers(4))), energies


def test_telescoping_trivial_schedule_is_exact():
    model, _ = four_state_model()
    res = cl.telescoping_partition_estimate(model, [0.0, 0.0], 10, 1)
    assert res.z_hat == 4.0


def test_telescoping_four_state_within_five_percent():
    model, energies = four_state_model()
    betas = np.linspace(0.0, 1.0, 9)
    res = cl.telescoping_partition_estimate(model, betas, 10_000, 5)
    z_true = sum(math.exp(-e) for e in energies)
    assert abs(res.z_hat - z_true) / z_true < 0.05
    assert res.alpha_floor > 0.5


def test_telescoping_ratio_identity_exact():
    # E[Y_i] under the level-i Gibbs law telescopes to the next partition
    # function, by direct enumeration
    _, energies = four_state_model()
    betas = np.linspace(0.0, 1.0, 9)

    def z(b):
        return sum(math.exp(-b * e) for e in energies)

    for b1, b2 in zip(betas[:-1], betas[1:]):
        expect = sum(math.exp(-b1 * e) / z(b1) * math.exp(-(b2 - b1) * e)
                     for e in energies)
        assert expect == pytest.approx(z(b2) / z(b1), abs=1e-14)


def test_telescoping_schedule_validation():
    model, _ = four_state_model()
    with pytest.raises(ValueError):
        cl.telescoping_partition_estimate(model, [0.0], 10, 1)
    with pytest.raises(ValueError):
        cl.telescoping_partition_estimate(model, [0.5, 1.0], 10, 1)
    with pytest.raises(ValueError):
        cl.telescoping_partition_estimate(model, [0.0, 0.8, 0.4], 10, 1)


# randomized property suite


def random_graph(rng):
    n = int(rng.integers(2, 13))
    while True:
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.add((i, j))
        loops = {i for i in range(n) if rng.random() < 0.25}
        degree = np.zeros(n)
        for i, j in edges:
            degree[i] += 1
            degree[j] += 1
        for i in loops:
            degree[i] += 1
        if np.all(degree > 0):
            return graphs.Graph(n, frozenset(edges), frozenset(loops))


def test_random_chain_properties():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        g = random_graph(rng)
        chain = cl.unbiased_chain(g)
        n = g.n
        assert np.max(np.abs(chain.matrix.sum(axis=0) - 1.0)) < 1e-12
        res = cl.stationary_and_limit(chain)
        assert tvd(chain.matrix @ res.pi, res.pi) < 1e-12
        deg = graphs.degrees(g)
        assert res.pi == pytest.approx(deg / deg.sum(), abs=1e-14)
        if not g.loops:
            assert res.pi == pytest.approx(deg / (2 * g.m), abs=1e-14)
        assert np.all(res.spectrum <= 1.0 + 1e-12)
        assert np.all(res.spectrum >= -1.0 - 1e-12)
        if graphs.is_connected(g):
            assert res.bipartite == (abs(res.spectrum[-1] + 1.0) < 1e-10)
            assert res.bipartite == graphs.is_bipartite(g)
        p = cl.evolve(chain, rng.dirichlet(np.ones(n)), int(rng.integers(0, 8)))
        assert np.all(p >= -1e-15)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
