"""Coined quantum walks: coins, evolution, limit theory, boundaries,
decoherence."""

import cmath
import math

import numpy as np
import pytest

from walklab import coined as cw
from walklab import graphs
from walklab.distributions import entropy, tvd
from walklab.linalg import unitarity_defect
from walklab.special import catalan, catalan_square_tail_sum
from walklab.trace import ToleranceError


def cycle_walk(n, kind="hadamard"):
    return cw.CoinedWalkOperator(graphs.cycle(n), cw.coin(kind))


def localized(op, vertex=0, c=0):
    psi = np.zeros((op.n, op.d), dtype=complex)
    psi[vertex, c] = 1.0
    return psi


# coins


def test_named_coin_matrices():
    r = 1.0 / math.sqrt(2)
    assert np.allclose(cw.coin("hadamard").matrix, [[r, r], [r, -r]], atol=1e-15)
    assert np.allclose(cw.coin("balanced").matrix, [[r, r * 1j], [r * 1j, r]],
                       atol=1e-15)
    assert np.allclose(cw.coin("dft").matrix, cw.coin("hadamard").matrix,
                       atol=1e-12)
    assert np.allclose(cw.coin("grover", 2).matrix, [[0, 1], [1, 0]], atol=1e-15)


def test_grover_coin_reflects_about_average():
    g = cw.coin("grover", 5).matrix
    assert np.allclose(np.diag(g), np.full(5, 2.0 / 5.0 - 1.0), atol=1e-15)
    assert g[0, 3] == pytest.approx(2.0 / 5.0, abs=1e-15)


def test_walsh_hadamard_is_tensor_power():
    h = cw.coin("hadamard").matrix
    assert np.allclose(cw.coin("walsh_hadamard", 4).matrix, np.kron(h, h),
                       atol=1e-12)
    assert np.allclose(cw.coin("walsh_hadamard", 8).matrix,
                       np.kron(h, np.kron(h, h)), atol=1e-12)


def test_flip_flop_coin_swaps_direction_pairs():
    ff = cw.coin("flip_flop", 4).matrix
    swap = np.kron(np.eye(2), [[0, 1], [1, 0]])
    assert np.allclose(ff, swap @ cw.coin("grover", 4).matrix, atol=1e-15)


def test_reflective_coin_phase():
    c = cw.coin("reflective", 3, phase=0.7)
    assert np.allclose(c.matrix, cmath.exp(0.7j) * np.eye(3), atol=1e-15)


def test_coin_dimension_errors():
    with pytest.raises(ValueError):
        cw.coin("hadamard", 3)
    with pytest.raises(ValueError):
        cw.coin("walsh_hadamard", 6)
    with pytest.raises(ValueError):
        cw.coin("flip_flop", 5)
    with pytest.raises(ValueError):
        cw.coin("nope", 2)
    with pytest.raises(ValueError):
        cw.coin("grover", 4, phase=1.0)
    with pytest.raises(ValueError):
        cw.Coin(2, np.array([[1.0, 0.0], [1.0, 1.0]]))


# evolution basics


def test_single_hadamard_step():
    op = cw.line_operator(2)
    psi = cw.line_start(op)
    out = op.step(psi)
    x = cw.line_positions(op)
    r = 1.0 / math.sqrt(2)
    assert out[x == 1, 0][0] == pytest.approx(r, abs=1e-15)
    assert out[x == -1, 1][0] == pytest.approx(r, abs=1e-15)
    assert np.abs(out).sum() == pytest.approx(2 * r, abs=1e-12)


def test_three_step_distribution_exact():
    op = cw.line_operator(3)
    p = cw.position_distribution(cw.walk_run(op, cw.line_start(op), 3))
    x = cw.line_positions(op)
    expected = {-3: 0.125, -1: 0.125, 1: 0.625, 3: 0.125}
    for pos, want in expected.items():
        assert p[x == pos][0] == pytest.approx(want, abs=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_steps_is_identity():
    op = cycle_walk(6)
    psi = localized(op, 2)
    assert np.array_equal(cw.walk_run(op, psi, 0), psi)


def test_walk_run_rejects_bad_input():
    op = cycle_walk(5)
    with pytest.raises(ValueError):
        cw.walk_run(op, np.zeros((4, 2)), 1)
    with pytest.raises(ValueError):
        cw.walk_run(op, localized(op), -1)


def test_walk_run_fails_closed_on_a_nan_state():
    op = cycle_walk(5)
    psi = localized(op)
    psi[1, 1] = np.nan
    for m in (0, 3):
        with pytest.raises(ToleranceError, match="norm drift"):
            cw.walk_run(op, psi, m)


def test_line_operator_never_builds_a_dense_adjacency(monkeypatch):
    def refuse(g):
        raise AssertionError("adjacency built")
    monkeypatch.setattr(graphs, "adjacency", refuse)
    op = cw.line_operator(2000)
    assert op.n == 4005


def test_support_parity_matches_step_parity():
    m = 31
    op = cw.line_operator(m)
    p = cw.position_distribution(cw.walk_run(op, cw.line_start(op), m))
    x = cw.line_positions(op)
    assert np.all(p[(x + m) % 2 == 1] < 1e-20)


def test_symmetric_initial_state_distribution():
    op = cw.line_operator(100)
    psi = cw.line_start(op, q=0.5, sigma=math.pi / 2.0)
    p = cw.position_distribution(cw.walk_run(op, psi, 100))
    x = cw.line_positions(op)
    for k in range(1, 101):
        assert abs(p[x == k][0] - p[x == -k][0]) < 1e-12


def test_spread_is_ballistic():
    m = 200
    op = cw.line_operator(m)
    p = cw.position_distribution(cw.walk_run(op, cw.line_start(op), m))
    x = cw.line_positions(op).astype(float)
    ratio = float((p * x * x).sum()) / m**2
    target = (math.sqrt(2.0) - 1.0) / math.sqrt(2.0)
    assert abs(ratio - target) / target < 0.02


def test_maximal_right_asymmetry_on_grid():
    # final state depends linearly on the two coin components, so two runs
    # cover the whole (q, sigma) family
    m = 100
    op = cw.line_operator(m)
    x = cw.line_positions(op).astype(float)
    up = cw.walk_run(op, cw.line_start(op, q=1.0), m)
    down = cw.walk_run(op, cw.line_start(op, q=0.0, sigma=0.0), m)

    def mean_position(q, sigma):
        final = math.sqrt(q) * up + math.sqrt(1.0 - q) * cmath.exp(1j * sigma) * down
        return float(cw.position_distribution(final) @ x)

    best = max(((q, s) for q in np.linspace(0.0, 1.0, 21)
                for s in np.linspace(0.0, 2.0 * math.pi, 21, endpoint=False)),
               key=lambda qs: mean_position(*qs))
    q_star = (2.0 + math.sqrt(2.0)) / 4.0
    assert best[1] == 0.0
    assert abs(best[0] - q_star) <= 0.05 + 1e-12
    # the asymptotic optimum sits a hair off the finite-m one; at m=100 its
    # mean trails the best grid point by less than 0.01%
    assert mean_position(q_star, 0.0) >= 0.999 * mean_position(*best)


# stationary-phase asymptotics


def test_envelope_at_origin():
    assert cw.slow_envelope(0, 100) == pytest.approx(2.0 / (math.pi * 100.0),
                                                     abs=1e-15)


def test_alpha_beta_sign_tracks_position():
    for x, m in ((12, 80), (30, 100), (-12, 80), (-30, 100)):
        a = cw.hadamard_asymptotics(x, m)
        assert math.copysign(1.0, a.alpha * a.beta) == math.copysign(1.0, x)


def test_cone_exterior_rejected():
    with pytest.raises(ValueError):
        cw.hadamard_asymptotics(71, 100)
    with pytest.raises(ValueError):
        cw.slow_envelope(75, 100)


def test_asymptotic_probability_matches_exact_walk():
    m = 100
    op = cw.line_operator(m)
    p = cw.position_distribution(cw.walk_run(op, cw.line_start(op), m))
    x = cw.line_positions(op)
    for k in (0, 10, 30, 50):
        exact = float(p[x == k][0])
        approx = cw.hadamard_asymptotics(k, m).probability
        assert abs(approx - exact) / exact < 0.03


def test_windowed_average_tracks_envelope():
    # triangular 11-point window (half of its mass on each parity class);
    # bounds frozen from the exact-simulation oracle: worst 16.3% at
    # k = 14, median 3.4% over |k| <= 60
    m = 100
    op = cw.line_operator(m)
    p = cw.position_distribution(cw.walk_run(op, cw.line_start(op), m))
    center = op.n // 2
    weights = 6.0 - np.abs(np.arange(-5, 6))
    weights /= weights.sum()
    rels = []
    for k in range(-60, 61):
        value = float(weights @ p[center + k - 5 : center + k + 6])
        reference = cw.slow_envelope(float(k), m) / 2.0
        rels.append(abs(value - reference) / reference)
    assert max(rels) <= 0.17
    assert float(np.median(rels)) <= 0.05


# limiting distribution and mixing


def test_odd_cycle_limit_is_uniform():
    op = cycle_walk(5)
    pi = cw.quantum_limit_dist(op, localized(op))
    assert np.allclose(pi, 0.2, atol=1e-10)


def test_limit_matches_time_average():
    op = cycle_walk(5)
    psi = localized(op)
    pi = cw.quantum_limit_dist(op, psi)
    acc = np.zeros(op.n)
    walker = psi.copy()
    for _ in range(100_000):
        acc += cw.position_distribution(walker)
        walker = op.step(walker)
    assert tvd(acc / 100_000, pi) < 5e-3


def test_even_cycle_limit_matches_time_average():
    op = cycle_walk(8)
    psi = localized(op)
    pi = cw.quantum_limit_dist(op, psi)
    acc = np.zeros(op.n)
    walker = psi.copy()
    for _ in range(20_000):
        acc += cw.position_distribution(walker)
        walker = op.step(walker)
    assert not np.allclose(pi, 1.0 / 8.0, atol=1e-3)
    assert tvd(acc / 20_000, pi) < 2e-3


def test_nondegenerate_spectrum_simplification():
    from walklab.linalg import group_indices_by_phase, unitary_eigensystem

    op = cycle_walk(5)
    psi = localized(op)
    values, vectors = unitary_eigensystem(op.dense())
    assert all(len(g) == 1 for g in group_indices_by_phase(values))
    amps2 = np.abs(vectors.conj().T @ psi.ravel()) ** 2
    modes = (np.abs(vectors) ** 2).reshape(op.n, op.d, -1).sum(axis=1)
    assert np.allclose(modes @ amps2, cw.quantum_limit_dist(op, psi), atol=1e-10)


def test_quantum_mixing_and_bound():
    op = cycle_walk(5)
    psi = localized(op)
    res = cw.quantum_mixing_time(op, psi, 0.05, 3000)
    assert 0 < res.steps < 3000
    pi = cw.quantum_limit_dist(op, psi)
    acc = np.zeros(op.n)
    walker = psi.copy()
    for _ in range(res.steps):
        acc += cw.position_distribution(walker)
        walker = op.step(walker)
    assert tvd(acc / res.steps, pi) <= res.bound
    assert res.distances.shape == (3000,)
    assert abs(res.distances[res.steps - 1] - tvd(acc / res.steps, pi)) < 1e-12
    assert res.distances[res.steps - 2] > 0.05
    assert np.all(res.distances[res.steps - 1:] <= 0.05)
    looser = cw.quantum_mixing_time(op, psi, 0.1, 3000)
    assert looser.steps <= res.steps
    assert cw.quantum_mixing_time(op, psi, 2.0, 10).steps == 0


def test_quantum_mixing_unreachable():
    op = cycle_walk(5)
    with pytest.raises(ValueError, match="by horizon 30"):
        cw.quantum_mixing_time(op, localized(op), 1e-4, 30)


# hitting


def test_hitting_self_target():
    op = cycle_walk(4)
    res = cw.hitting_analysis(op, localized(op), 0, 5)
    assert res.first_hit[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.first_hit[1:] < 1e-20)
    assert res.concurrent == 0


def test_first_hit_mass_never_exceeds_one():
    op = cycle_walk(4)
    res = cw.hitting_analysis(op, localized(op), 2, 200)
    total = res.first_hit.sum()
    assert total <= 1.0 + 1e-12
    assert total > 0.99


def test_concurrent_hitting_time():
    op = cycle_walk(4)
    res = cw.hitting_analysis(op, localized(op), 2, 30, p=0.5)
    csum = np.cumsum(res.one_shot)
    assert csum[res.concurrent] >= 0.5
    assert np.all(csum[: res.concurrent] < 0.5)
    with pytest.raises(ValueError, match="horizon of 2 steps"):
        cw.hitting_analysis(op, localized(op), 2, 2, p=0.99)


def test_monitored_process_against_trajectories():
    # independent trajectory sampler: keep the normalized conditional
    # state, draw binomial click counts per step
    op = cycle_walk(4)
    psi = localized(op)
    target = 2
    m_max = 25
    res = cw.hitting_analysis(op, psi, target, m_max)
    rng = np.random.default_rng(42)
    alive = 100_000
    total = alive
    observed = np.zeros(m_max + 1)
    phi = psi.copy()
    phi[target] = 0.0
    observed[0] = 0.0
    for t in range(1, m_max + 1):
        phi = op.step(phi)
        q = float((np.abs(phi[target]) ** 2).sum() / (np.abs(phi) ** 2).sum())
        clicks = rng.binomial(alive, q)
        observed[t] = clicks
        alive -= clicks
        phi[target] = 0.0
        norm = np.linalg.norm(phi)
        if norm < 1e-15:
            break
        phi /= norm
    for t in range(1, m_max + 1):
        expected = res.first_hit[t]
        sigma = math.sqrt(max(expected * (1.0 - expected), 1e-12) / total)
        assert abs(observed[t] / total - expected) <= 3.0 * sigma + 1e-4, t


# absorbing boundary


def test_absorbing_first_step_mass():
    res = cw.absorbing_line_quantum(10)
    assert res.per_step[1] == pytest.approx(0.5, abs=1e-14)
    assert res.per_step[2] == pytest.approx(0.0, abs=1e-20)


def test_absorbing_amplitude_catalan_pattern():
    res = cw.absorbing_line_quantum(100)
    scaled = res.amplitudes * 2.0 ** (np.arange(101) / 2.0)
    assert scaled[1] == pytest.approx(1.0, abs=1e-12)
    for m in range(2, 101):
        if m == 1 or (m - 3) % 4 == 0:
            continue
        # exactly zero in exact arithmetic; raw float noise sits near 1e-16
        # while the smallest true entry in this range is above 4e-4
        assert abs(res.amplitudes[m]) < 1e-14
    for k in range(0, 25):
        m = 4 * k + 3
        want = (-1.0) ** (k + 1) * catalan(k)
        assert abs(scaled[m] - want) < 1e-9 * max(1.0, abs(want))


def test_absorbing_cumulative_reaches_two_over_pi():
    res = cw.absorbing_line_quantum(4000)
    assert abs(res.cumulative[-1] - 2.0 / math.pi) < 1e-3
    # independent route: closed-form partial sums of the absorbed mass
    kmax = (4000 - 3) // 4
    exact = 0.5 + catalan_square_tail_sum(kmax) / 8.0
    assert abs(res.cumulative[4 * kmax + 3] - exact) < 1e-10


def test_absorbing_rejects_zero_steps():
    with pytest.raises(ValueError):
        cw.absorbing_line_quantum(0)


# decoherence


def test_unitary_limit_matches_pure_walk():
    op = cycle_walk(6)
    psi = localized(op, 1)
    rho = cw.decohere_evolve(op, 1.0, "both", cw.DensityState.from_pure(psi), 7)
    pure = cw.walk_run(op, psi, 7)
    assert np.max(np.abs(rho.matrix - np.outer(pure.ravel(),
                                               pure.conj().ravel()))) < 1e-10


def test_full_measurement_gives_classical_walk():
    from walklab.classical import line_walk_binomial

    m = 40
    op = cw.line_operator(m)
    rho = cw.DensityState.from_pure(cw.line_start(op))
    x = cw.line_positions(op)
    for step in range(1, m + 1):
        rho = cw.decohere_evolve(op, 0.0, "both", rho, 1)
        p = cw.position_distribution(rho)
        _, binom = line_walk_binomial(step)
        full = np.zeros(op.n)
        full[(x >= -step) & (x <= step)] = binom
        assert tvd(p, full) < 1e-10, step


def test_edge_phase_equals_both():
    op = cycle_walk(5)
    rho0 = cw.DensityState.from_pure(localized(op))
    a = cw.decohere_evolve(op, 0.7, "both", rho0, 5)
    b = cw.decohere_evolve(op, 0.7, "edge-phase", rho0, 5)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-14


def random_unitary_coin(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return cw.Coin(d, np.linalg.qr(z)[0])


def test_structured_channel_matches_dense_superoperator():
    rng = np.random.default_rng(429)
    g = graphs.hypercube(3)
    per_vertex = cw.CoinedWalkOperator(
        g, [random_unitary_coin(rng, 3) for _ in range(g.n)])
    for op in (cycle_walk(5), per_vertex):
        rho0 = cw.DensityState.from_pure(localized(op))
        got = cw.decohere_evolve(op, 0.6, "coin", rho0, 4)
        u = op.dense()
        nd = op.n * op.d
        c = np.arange(nd) % op.d
        keep = (c[:, None] == c[None, :]).astype(float)
        rho = rho0.matrix
        for _ in range(4):
            rho = u @ rho @ u.conj().T
            rho = 0.6 * rho + 0.4 * rho * keep
        assert np.max(np.abs(got.matrix - rho)) < 1e-12


def test_partial_decoherence_maximizes_entropy():
    m = 100
    op = cw.line_operator(m)
    rho0 = cw.DensityState.from_pure(cw.line_start(op))
    entropies = {}
    for p in (0.0, 0.96, 1.0):
        rho = cw.decohere_evolve(op, p, "both", rho0, m)
        entropies[p] = entropy(cw.position_distribution(rho))
    assert entropies[0.96] > entropies[0.0]
    assert entropies[0.96] > entropies[1.0]


def test_decoherence_preserves_trace_and_positivity():
    op = cycle_walk(6)
    rho0 = cw.DensityState.from_pure(localized(op))
    rho = cw.decohere_evolve(op, 0.3, "position", rho0, 12)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-9
    assert rho.check_positive(1e-9) > -1e-9


def test_decoherence_validation():
    op = cycle_walk(5)
    rho0 = cw.DensityState.from_pure(localized(op))
    with pytest.raises(ValueError):
        cw.decohere_evolve(op, 1.2, "both", rho0, 1)
    with pytest.raises(ValueError):
        cw.decohere_evolve(op, 0.5, "planet", rho0, 1)


def test_density_state_validation():
    with pytest.raises(ValueError):
        cw.DensityState((2, 1), np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        cw.DensityState((2, 1), np.array([[0.5, 1.0], [0.0, 0.5]]))
    bad = cw.DensityState((2, 1), np.diag([1.5, -0.5]))
    with pytest.raises(ToleranceError):
        bad.check_positive()


# randomized property suite


def random_walk_operator(rng):
    family = rng.integers(5)
    if family == 0:
        g = graphs.cycle(int(rng.integers(3, 10)))
    elif family == 1:
        g = graphs.complete(int(rng.integers(3, 7)), loops=bool(rng.integers(2)))
    elif family == 2:
        g = graphs.hypercube(int(rng.integers(1, 4)))
    elif family == 3:
        k = int(rng.integers(2, 5))
        g = graphs.complete_bipartite(k, k)
    else:
        g = graphs.m_partite(int(rng.integers(2, 4)), int(rng.integers(1, 4)))
    d = graphs.color_edges(g).d
    options = ["grover", "dft"]
    if d == 2:
        options += ["hadamard", "balanced"]
    if d % 2 == 0:
        options.append("flip_flop")
    if d & (d - 1) == 0 and d >= 2:
        options.append("walsh_hadamard")
    kind = options[rng.integers(len(options))]
    if rng.random() < 0.25:
        # random unitary coins are not symmetric, so a coin applied as its
        # transpose shows up here
        makers = [lambda: cw.coin(kind, d),
                  lambda: cw.coin("reflective", d,
                                  phase=float(rng.uniform(0, 2 * math.pi))),
                  lambda: random_unitary_coin(rng, d)]
        coins = [makers[rng.integers(3)]() for _ in range(g.n)]
        return cw.CoinedWalkOperator(g, coins)
    return cw.CoinedWalkOperator(g, cw.coin(kind, d))


def test_random_walk_operator_properties():
    rng = np.random.default_rng(515)
    batch_rng = np.random.default_rng(516)
    for _ in range(110):
        op = random_walk_operator(rng)
        u = op.dense()
        assert unitarity_defect(u) < 1e-8
        psi = rng.normal(size=(op.n, op.d)) + 1j * rng.normal(size=(op.n, op.d))
        psi /= np.linalg.norm(psi)
        stepped = op.step(psi)
        assert np.allclose(stepped.ravel(), u @ psi.ravel(), atol=1e-10)
        assert abs(np.linalg.norm(stepped) - 1.0) < 1e-10
        shape = (3, op.n, op.d)
        batch = batch_rng.normal(size=shape) + 1j * batch_rng.normal(size=shape)
        batch_stepped = op.step(batch)
        assert batch_stepped.shape == shape
        for row, got in zip(batch, batch_stepped):
            assert np.max(np.abs(got - op.step(row))) < 1e-13
            assert np.allclose(got.ravel(), u @ row.ravel(), atol=1e-10)


def test_shift_alone_is_a_permutation():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        g = graphs.cycle(n)
        op = cw.CoinedWalkOperator(g, cw.coin("reflective", 2, phase=0.0))
        u = op.dense().real
        assert np.array_equal(u, u.astype(bool).astype(float))
        assert np.all(u.sum(axis=0) == 1.0)
        assert np.all(u.sum(axis=1) == 1.0)
