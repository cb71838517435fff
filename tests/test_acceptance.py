"""End-to-end acceptance checks, one test per headline numerical claim.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test pins the exact tolerance it guarantees; the
module suites hold the finer-grained coverage.
"""

import math

import numpy as np

from walklab import (
    classical,
    coined,
    ctqw,
    distributions,
    graphs,
    grover,
    linalg,
    scattering,
    subset,
    szegedy,
)


def test_criterion_01_hadamard_three_step_distribution_exact():
    op = coined.line_operator(3)
    p = coined.position_distribution(
        coined.walk_run(op, coined.line_start(op), 3))
    x = coined.line_positions(op)
    expected = {-3: 1 / 8, -1: 1 / 8, 1: 5 / 8, 3: 1 / 8}
    for pos, want in expected.items():
        assert abs(p[x == pos][0] - want) <= 1e-12
    assert abs(p.sum() - 1.0) <= 1e-12


def test_criterion_02_absorbing_boundary_limits():
    res = coined.absorbing_line_quantum(4000)
    assert abs(res.cumulative[-1] - 2.0 / math.pi) <= 1e-3
    assert abs(classical.absorbing_hit_prob_line(0.5) - 1.0) <= 1e-3
    # the classical cumulative at the same horizon is still 1 - O(1/sqrt(m));
    # verify it against the exact survival probability and the sqrt rate
    p = np.zeros(4002)
    p[1] = 1.0
    absorbed = 0.0
    for _ in range(4000):
        nxt = np.zeros_like(p)
        nxt[:-1] += 0.5 * p[1:]
        nxt[1:] += 0.5 * p[:-1]
        absorbed += nxt[0]
        nxt[0] = 0.0
        p = nxt
    survival = math.exp(
        math.lgamma(4001) - 2.0 * math.lgamma(2001) - 4000.0 * math.log(2.0))
    assert abs((1.0 - absorbed) - survival) <= 1e-9
    assert survival <= math.sqrt(2.0 / (math.pi * 4000.0)) * 1.01


def test_criterion_03_ballistic_and_diffusive_dispersion():
    m = 200
    op = coined.line_operator(m)
    dist = coined.position_distribution(
        coined.walk_run(op, coined.line_start(op), m))
    x = coined.line_positions(op).astype(float)
    target = (math.sqrt(2.0) - 1.0) / math.sqrt(2.0)
    assert abs(dist @ x ** 2 / m ** 2 - target) <= 0.02 * target
    for m_cl in (100, 400):
        pos, probs = classical.line_walk_binomial(m_cl)
        var = probs @ pos.astype(float) ** 2
        assert abs(var / m_cl - 1.0) <= 0.01


def test_criterion_04_balanced_coin_gives_symmetric_distribution():
    m = 100
    op = coined.line_operator(m)
    start = coined.line_start(op, q=0.5, sigma=math.pi / 2.0)
    p = coined.position_distribution(coined.walk_run(op, start, m))
    assert np.max(np.abs(p - p[::-1])) <= 1e-12


def test_criterion_05_fully_measured_walk_is_binomial():
    m_max = 100
    op = coined.line_operator(m_max)
    rho = coined.DensityState.from_pure(coined.line_start(op))
    for m in range(1, m_max + 1):
        rho = coined.decohere_evolve(op, 0.0, "both", rho, 1)
        dist = coined.position_distribution(rho)
        pos, probs = classical.line_walk_binomial(m)
        reference = np.zeros(op.n)
        reference[op.n // 2 + pos] = probs
        assert distributions.tvd(dist, reference) <= 1e-10


def test_criterion_06_entropy_ordering_and_asymptote():
    m = 100
    _, binom = classical.line_walk_binomial(m)
    s_classical = distributions.entropy(binom)
    op = coined.line_operator(m)
    s_quantum = distributions.entropy(coined.position_distribution(
        coined.walk_run(op, coined.line_start(op), m)))
    assert s_classical < s_quantum <= math.log(m + 1.0) + 1e-12
    asymptote = (1.0 + math.log(math.pi * m / 2.0)) / 2.0
    assert abs(s_classical - asymptote) <= 0.02 * asymptote


def test_criterion_07_grover_small_exact_and_large_fast():
    small = grover.grover_run(4, [2])
    assert small.queries == 1
    assert abs(small.success - 1.0) <= 1e-12
    large = grover.grover_run(1024, [17], steps=25)
    assert large.success >= 0.999


def test_criterion_08_fixed_point_cubing_and_query_ledger():
    base_queries = {"identity": 0, "grover-iterate": 1}
    for base, qb in base_queries.items():
        failures = []
        for level in range(7):
            res = grover.fixed_point_run(level, 8, [0], base)
            assert res.queries == 3 ** level * qb + (3 ** level - 1) // 2
            failures.append(res.failure)
        for f_prev, f_next in zip(failures, failures[1:]):
            assert abs(f_next - f_prev ** 3) <= 1e-9


def search_coins(n, k):
    coins = {v: scattering.reflective_coin(math.pi) for v in range(k)}
    for v in range(k, n):
        coins[v] = scattering.grover_coin()
    return coins


def test_criterion_09_edge_walk_reduction_and_search():
    for n in (6, 9, 12):
        red = scattering.reduce_complete_graph(n, 1, math.pi)
        op = scattering.sqw_build(graphs.complete(n), search_coins(n, 1))
        psi_full = np.full(op.dim, 1.0 / math.sqrt(op.dim), dtype=complex)
        psi_red = red.vectors.T @ psi_full
        for _ in range(15):
            assert np.max(np.abs(red.vectors.T @ psi_full - psi_red)) <= 1e-10
            psi_full = op.step(psi_full)
            psi_red = red.reduced @ psi_red
    summary = scattering.complete_graph_search(100, 1)
    assert summary.steps == round(math.pi / (2.0 * math.sqrt(2.0)) * 10.0)
    assert summary.success >= 0.95


def test_criterion_10_star_graph_triangle_localization():
    res = scattering.star_graph_search(400, 0.0)
    assert res.triangle_probability >= 0.95
    c = res.trajectory[-1]
    for component in (c[0] ** 2, c[1] ** 2, c[4] ** 2):
        assert abs(component - 1.0 / 3.0) <= 0.05


def random_symmetric_chain(rng):
    n = int(rng.integers(4, 9))
    a = np.triu((rng.random(size=(n, n)) < 0.5).astype(float), 1)
    a = a + a.T
    if a.sum() == 0:
        a[0, 1] = a[1, 0] = 1.0
    d_max = float(a.sum(axis=1).max())
    return a / d_max + np.diag(1.0 - a.sum(axis=1) / d_max)


def test_criterion_11_discriminant_phase_pairing():
    rng = np.random.default_rng(2026)
    for _ in range(20):
        p = random_symmetric_chain(rng)
        smap = szegedy.spectrum_map(p)
        assert smap.pairing_error <= 1e-8
        for r in smap.residual_values:
            assert min(abs(r - 1.0), abs(r + 1.0)) <= 1e-8


def test_criterion_12_marked_chain_norm_and_phase_bounds():
    for n in (8, 16, 32):
        p = szegedy.from_markov_chain(
            classical.unbiased_chain(graphs.complete(n)))
        for k in (1, 2, 4):
            mc = szegedy.marked_modify(p, range(k))
            assert mc.norm <= mc.bound + 1e-10
            gap = szegedy.marked_phase_gap(p, range(k))
            assert gap.phi0 >= gap.bound - 1e-10


def test_criterion_13_cycle_wavefront_bessel_law():
    check = ctqw.cycle_bessel_check(600, 20.0, 60)
    assert np.max(check.difference) <= 5e-3
    # anchor the plane-wave route to a dense evolution at every displacement,
    # on both sides of the start
    h = ctqw.graph_hamiltonian(graphs.cycle(600), "negative-adjacency")
    psi0 = np.zeros(600)
    psi0[0] = 1.0
    dense = np.abs(ctqw.ctqw_run(h, 20.0, psi0)) ** 2
    d = np.arange(61)
    assert np.max(np.abs(check.exact - dense[d])) <= 1e-12
    assert np.max(np.abs(check.exact - dense[-d])) <= 1e-12


def test_criterion_14_limiting_distribution_closed_forms():
    h5 = ctqw.graph_hamiltonian(graphs.cycle(5))
    want5 = np.full(5, 1.0 / 5.0 - 1.0 / 25.0)
    want5[0] += 1.0 / 5.0
    assert np.max(np.abs(ctqw.ctqw_limiting(h5, 0) - want5)) <= 1e-9
    h6 = ctqw.graph_hamiltonian(graphs.cycle(6))
    want6 = np.full(6, 1.0 / 6.0 - 2.0 / 36.0)
    want6[0] += 1.0 / 6.0
    want6[3] += 1.0 / 6.0
    assert np.max(np.abs(ctqw.ctqw_limiting(h6, 0) - want6)) <= 1e-9


def test_criterion_15_hypercube_antipode_transfer():
    for n in range(1, 11):
        h = ctqw.graph_hamiltonian(graphs.hypercube(n), "negative-adjacency")
        psi0 = np.zeros(2 ** n)
        psi0[0] = 1.0
        for t in (0.37, math.pi / 2.0, 1.9):
            dense = abs(ctqw.ctqw_run(h, t, psi0)[-1]) ** 2
            assert abs(ctqw.hypercube_antipode_prob(n, t) - dense) <= 1e-10
        assert abs(ctqw.hypercube_antipode_prob(n, math.pi / 2.0) - 1.0) <= 1e-12


def test_criterion_16_glued_trees_reduction_and_traversal():
    for kind in ("plain", "cycle"):
        for n in range(2, 7):
            red = ctqw.glued_trees_reduce(kind, n, seed=n)
            assert red.equivalence_error <= 1e-8
            if kind == "cycle":
                h = red.line.hamiltonian().matrix
                times = np.linspace(0.0, 4.0 * n, 40 * n + 1)
                psi0 = np.eye(red.line.nodes)[0]
                exit_prob = np.abs(
                    linalg.evolve_many(h, times, psi0)[:, -1]) ** 2
                assert exit_prob.max() >= 0.25


def test_criterion_17_analog_search_dense_agreement():
    for n, m in ((64, 1), (128, 2)):
        h = ctqw.search_hamiltonian(graphs.complete(n), 1.0 / n, range(m))
        psi0 = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
        t_star = (math.pi / 2.0) * math.sqrt(n / m)
        for t in np.linspace(0.0, 1.2 * t_star, 25):
            hit = float(np.sum(np.abs(ctqw.ctqw_run(h, t, psi0)[:m]) ** 2))
            assert abs(hit - ctqw.analog_search(n, t, m)) <= 1e-9
        assert abs(ctqw.analog_search(n, t_star, m) - 1.0) <= 1e-12


def bool_nand(tree):
    if not isinstance(tree, tuple):
        return tree
    return 0 if (bool_nand(tree[0]) and bool_nand(tree[1])) else 1


def test_criterion_18_nand_tree_classification():
    for bits in range(16):
        a, b, c, d = ((bits >> i) & 1 for i in range(4))
        tree = ((a, b), (c, d))
        assert ctqw.nand_eval(tree).bit == bool_nand(tree)
    rng = np.random.default_rng(18)

    def full_tree(depth):
        if depth == 0:
            return int(rng.integers(2))
        return (full_tree(depth - 1), full_tree(depth - 1))

    for _ in range(1000):
        tree = full_tree(5)
        assert ctqw.nand_eval(tree).bit == bool_nand(tree)


def test_criterion_19_subset_walk_collision_and_grover_curve():
    # one-element subsets with a single marked point walk exactly like
    # the edge search on the complete graph
    for n in (8, 12):
        red = scattering.reduce_complete_graph(n, 1, math.pi)
        sizes = {"um": n - 1, "mu": n - 1, "uu": (n - 1) * (n - 2)}
        state = np.array([math.sqrt(sizes[l] / (n * (n - 1)))
                          for l in red.labels], dtype=complex)
        into = red.labels.index("um")
        f = lambda x: 1 if x == 3 else 0
        prop = lambda pairs: pairs[0][1] == 1
        for m in range(13):
            res = subset.subset_walk_run(n, 1, 1, f, prop, schedule=(1, m))
            assert abs(res.success - abs(state[into]) ** 2) <= 1e-9
            state = red.reduced @ state
    values = list(range(9)) + [0]
    res = subset.subset_walk_run(
        10, 5, 2, lambda x: values[x],
        lambda pairs: len({v for _, v in pairs}) == 1)
    assert abs(res.best_tau1 - res.tau1) <= 2
    assert abs(res.best_tau2 - res.tau2) <= 2
    assert res.best_success >= 0.5


def test_criterion_20_telescoping_partition_estimate():
    energies = [0.0, 1.0, 1.0, 2.0]
    model = classical.EnergyModel(
        4, lambda s: energies[s],
        lambda s, rng: int((s + 1 + rng.integers(3)) % 4))
    betas = np.linspace(0.0, 2.0, 9)
    z = lambda b: sum(math.exp(-b * e) for e in energies)
    for b1, b2 in zip(betas[:-1], betas[1:]):
        mean = sum(math.exp(-b1 * e) * math.exp(-(b2 - b1) * e)
                   for e in energies) / z(b1)
        assert abs(mean - z(b2) / z(b1)) <= 1e-12
    res = classical.telescoping_partition_estimate(
        model, betas, 10_000, np.random.default_rng(20))
    assert abs(res.z_hat - z(2.0)) <= 0.05 * z(2.0)


def test_criterion_21_randomized_invariant_battery():
    rng = np.random.default_rng(21)
    cases = 0
    for _ in range(40):
        pick = int(rng.integers(3))
        if pick == 0:
            g, c = graphs.cycle(int(rng.integers(3, 9))), coined.coin("hadamard")
        elif pick == 1:
            d = int(rng.integers(2, 5))
            g, c = graphs.hypercube(d), coined.coin("grover", d=d)
        else:
            n = int(rng.integers(4, 8))
            g, c = graphs.complete(n), coined.coin("dft", d=n - 1)
        op = coined.CoinedWalkOperator(g, c)
        psi = rng.normal(size=(op.n, op.d)) + 1j * rng.normal(size=(op.n, op.d))
        psi /= np.linalg.norm(psi)
        out = coined.walk_run(op, psi, int(rng.integers(1, 6)))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10
        cases += 1
    for _ in range(40):
        p = random_symmetric_chain(rng)
        w = szegedy.szegedy_build(p).w
        assert np.max(np.abs(w.conj().T @ w - np.eye(len(w)))) <= 1e-10
        cases += 1
    for _ in range(40):
        dim = int(rng.integers(2, 10))
        m = rng.normal(size=(dim, dim))
        h = ctqw.Hamiltonian(m + m.T)
        t = float(rng.uniform(0.0, 4.0))
        x, y = (int(v) for v in rng.integers(dim, size=2))
        fwd = ctqw.ctqw_run(h, t, np.eye(dim)[x])
        back = ctqw.ctqw_run(h, t, np.eye(dim)[y])
        assert abs(np.linalg.norm(fwd) - 1.0) <= 1e-10
        assert abs(abs(fwd[y]) - abs(back[x])) <= 1e-10
        cases += 1
    assert cases >= 100
