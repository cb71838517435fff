"""Coined quantum walks: coins, evolution, limit theory, boundaries,
decoherence."""

import cmath
import math

import numpy as np
import pytest

from helpers import whole_state_hitting
from walklab import coined as cw
from walklab import graphs
from walklab.distributions import entropy, tvd
from walklab.linalg import unitarity_defect
from walklab.special import catalan, catalan_square_tail_sum
from walklab.trace import ToleranceError


def cycle_walk(n, kind="hadamard"):
    return cw.CoinedWalkOperator(graphs.cycle(n), cw.coin(kind))


# a complex coin that is its own transpose
BALANCED = cw.Coin(2, np.array([[1, 1j], [1j, 1]]) / math.sqrt(2))


def localized(op, vertex=0, c=0):
    psi = np.zeros((op.n, op.d), dtype=complex)
    psi[vertex, c] = 1.0
    return psi


# coins


def test_real_coins_stay_real():
    for kind, d in [("hadamard", 2), ("grover", 4)]:
        assert cw.coin(kind, d).matrix.dtype == float
    assert cw.coin("dft", 3).matrix.dtype == complex
    assert cw.Coin(2, np.eye(2, dtype=int)).matrix.dtype == float


def test_named_coin_matrices():
    r = 1.0 / math.sqrt(2)
    assert np.allclose(cw.coin("hadamard").matrix, [[r, r], [r, -r]], atol=1e-15)
    assert np.allclose(cw.coin("dft").matrix, cw.coin("hadamard").matrix,
                       atol=1e-12)
    assert np.allclose(cw.coin("grover", 2).matrix, [[0, 1], [1, 0]], atol=1e-15)


def test_grover_coin_reflects_about_average():
    g = cw.coin("grover", 5).matrix
    assert np.allclose(np.diag(g), np.full(5, 2.0 / 5.0 - 1.0), atol=1e-15)
    assert g[0, 3] == pytest.approx(2.0 / 5.0, abs=1e-15)


def test_only_hadamard_grover_and_dft_are_named():
    for kind in ("balanced", "walsh_hadamard", "flip_flop", "reflective"):
        with pytest.raises(ValueError, match="unknown coin kind"):
            cw.coin(kind, 2)


def test_coin_dimension_errors():
    with pytest.raises(ValueError):
        cw.coin("hadamard", 3)
    with pytest.raises(ValueError):
        cw.coin("grover", 0)
    with pytest.raises(ValueError):
        cw.coin("nope", 2)
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


def test_line_start_is_real_unless_the_down_amplitude_is_complex():
    op = cw.line_operator(4)
    for q, sigma in [(1.0, 0.0), (0.0, 0.0), (0.3, 0.0), (1.0, 0.3)]:
        psi = cw.line_start(op, q, sigma)
        assert psi.dtype == float
        assert cw.walk_run(op, psi, 4).dtype == float
    psi = cw.line_start(op, 0.5, 0.3)
    assert psi.dtype == complex
    assert psi[op.n // 2, 1] == math.sqrt(0.5) * cmath.exp(0.3j)
    assert cw.walk_run(op, psi, 4).dtype == complex


def windowed_state(rng, n, lo, hi, dtype, batch=()):
    """Normal entries on the rows [lo, hi), zeros elsewhere, unit norm per
    state."""
    psi = np.zeros(batch + (n, 2), dtype=dtype)
    psi[..., lo:hi, :] = rng.normal(size=batch + (hi - lo, 2))
    if dtype is complex:
        psi[..., lo:hi, :] += 1j * rng.normal(size=batch + (hi - lo, 2))
    return psi / np.linalg.norm(psi, axis=(-2, -1), keepdims=True)


def gathered(op, psi):
    """The coin on every row of psi, then the shift as a gather built from
    the coloring: entry (v, c) comes from the vertex that color c moves
    to v."""
    mixed = op._coin(psi)
    out = np.empty_like(mixed)
    for c in range(op.d):
        out[..., c] = mixed[..., np.argsort(op.coloring.next_vertex[:, c]), c]
    return out


@pytest.mark.parametrize("kind", ["hadamard", "balanced", "per-vertex"])
def test_windowed_step_equals_full_step(kind):
    # the step's gather through _source equals a gather read off the
    # coloring, bit for bit
    rng = np.random.default_rng(11)
    for n in (5, 12, 41):
        if kind == "per-vertex":
            op = cw.CoinedWalkOperator(graphs.cycle(n), [
                random_unitary_coin(rng, 2) for _ in range(n)])
        elif kind == "balanced":
            op = cw.CoinedWalkOperator(graphs.cycle(n), BALANCED)
        else:
            op = cycle_walk(n, kind)
        # the color step moves up goes to v + 1 at every vertex, the other
        # to v - 1
        up = op._right
        v = np.arange(n)
        assert np.array_equal(op.coloring.next_vertex[:, up], (v + 1) % n)
        assert np.array_equal(op.coloring.next_vertex[:, 1 - up], (v - 1) % n)
        u = op.dense()
        # in the middle, wide, on the wrap rows on either side, and full
        # width; one state and a batch of three
        for lo, hi in [(n // 2, n // 2 + 2), (2, n - 2), (0, 2),
                       (n - 2, n), (0, n)]:
            for dtype in (float, complex):
                for batch in ((), (3,)):
                    psi = windowed_state(rng, n, lo, hi, dtype, batch)
                    # a zero row inside the support, of signed zeros
                    psi[..., (lo + hi) // 2, :] *= -0.0
                    got = op.step(psi)
                    assert got.shape == psi.shape
                    assert got.dtype == np.promote_types(op.dtype, dtype)
                    assert got.tobytes() == gathered(op, psi).tobytes()
                    flat = psi.reshape(-1, 2 * n)
                    assert np.max(np.abs(got.reshape(-1, 2 * n)
                                         - flat @ u.T)) <= 1e-15


def test_walk_states_step_in_the_light_cone_until_it_wraps(monkeypatch):
    # walk_states yields what step returns, one step call per step
    step = cw.CoinedWalkOperator.step
    results = []

    def spy(self, state):
        results.append(step(self, state))
        return results[-1]

    monkeypatch.setattr(cw.CoinedWalkOperator, "step", spy)
    rng = np.random.default_rng(12)
    op = cycle_walk(11)
    cube = cw.CoinedWalkOperator(graphs.hypercube(3), cw.coin("grover", 3))
    # on the wrap rows at site 0 and at site 10, and across the cycle
    for walk, psi0 in [(op, windowed_state(rng, 11, 0, 2, complex)),
                       (op, windowed_state(rng, 11, 9, 11, float)),
                       (op, windowed_state(rng, 11, 0, 11, complex)),
                       (cube, localized(cube))]:
        for m in (0, 1, 7):
            results.clear()
            states = list(cw.walk_states(walk, psi0, m))
            assert len(results) == m and len(states) == m + 1
            assert states[0].tobytes() == psi0.tobytes()
            for got, want in zip(states[1:], results):
                assert got.tobytes() == want.tobytes()
            want = psi0
            for got in states:
                assert got.tobytes() == want.tobytes()
                want = step(walk, want)


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
    # on both sides of the origin, from starts biased either way: left of
    # the origin the walk mirrors the walk from the opposite bias
    m = 100
    op = cw.line_operator(m)
    x = cw.line_positions(op)
    for q, sigma in ((1.0, 0.0), (0.0, 0.0), (0.5, 0.0), (0.5, math.pi / 2),
                     (0.3, 2.0), (0.8, -1.0)):
        p = cw.position_distribution(
            cw.walk_run(op, cw.line_start(op, q, sigma), m))
        for k in (0, 10, 30, 50, -10, -30, -50):
            exact = float(p[x == k][0])
            approx = cw.hadamard_asymptotics(k, m, q, sigma).probability
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


def test_quantum_mixing_fails_closed_on_a_nan_start():
    op = cycle_walk(5)
    with pytest.raises(ValueError, match="by horizon 30"):
        cw.quantum_mixing_time(op, np.full((5, 2), np.nan), 0.05, 30)


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


@pytest.mark.parametrize("dim, horizon",
                         [(dim, 2000) for dim in range(2, 9)] + [(5, 30000)])
def test_hitting_real_start_keeps_every_byte(dim, horizon):
    # the Grover coin is real, so a real start walks in real arithmetic;
    # every series is, byte for byte, the one from the same start as complex
    op = cw.CoinedWalkOperator(graphs.hypercube(dim), cw.coin("grover", d=dim))
    psi0 = np.zeros((op.n, dim))
    psi0[0] = 1.0 / math.sqrt(dim)
    real = cw.hitting_analysis(op, psi0, op.n - 1, horizon)
    want = cw.hitting_analysis(op, psi0.astype(complex), op.n - 1, horizon)
    assert real.one_shot.tobytes() == want.one_shot.tobytes()
    assert real.first_hit.tobytes() == want.first_hit.tobytes()
    assert real.concurrent == want.concurrent


def test_hitting_sums_each_step_coin_by_coin():
    # the reference adds the d coin probabilities one after another; a
    # pairwise sum over the eight coins rounds differently on some steps
    dim, horizon = 8, 3000
    op = cw.CoinedWalkOperator(graphs.hypercube(dim), cw.coin("grover", d=dim))
    psi0 = np.zeros((op.n, dim))
    psi0[0] = 1.0 / math.sqrt(dim)
    target = op.n - 1
    res = cw.hitting_analysis(op, psi0, target, horizon)
    one_shot, first_hit = np.empty(horizon + 1), np.empty(horizon + 1)
    pair = np.stack([psi0, psi0])
    for t in range(horizon + 1):
        if t:
            pair = op.step(pair)
        total = 0.0
        for c in range(dim):
            total = total + np.abs(pair[:, target, c]) ** 2
        one_shot[t], first_hit[t] = total
        pair[1, target] = 0.0
    assert res.one_shot.tobytes() == one_shot.tobytes()
    assert res.first_hit.tobytes() == first_hit.tobytes()


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


def corner_start(dim, dtype=float):
    """A walker at corner 0 of the dim-cube in the uniform coin state, with
    a phase on every coin when complex."""
    psi0 = np.zeros((2 ** dim, dim), dtype=dtype)
    psi0[0] = 1.0 / math.sqrt(dim)
    if dtype is complex:
        psi0[0] *= np.exp(1j * np.arange(dim))
    return psi0


def spread_start(op, vertices, dtype=complex):
    rng = np.random.default_rng(len(vertices))
    psi0 = np.zeros((op.n, op.d), dtype=dtype)
    for v in vertices:
        psi0[v] = rng.normal(size=op.d)
        if dtype is complex:
            psi0[v] = psi0[v] * np.exp(1j * rng.normal(size=op.d))
    return psi0 / np.linalg.norm(psi0)


def hitting_cases():
    """(operator, start, target, horizon): d-cubes from corner 0 with the
    target on either side, an even cycle, graphs that are not bipartite,
    starts spread over both sides, real and complex starts, and one coin
    per vertex."""
    for dim in range(2, 9):
        op = cw.CoinedWalkOperator(graphs.hypercube(dim),
                                   cw.coin("grover", d=dim))
        for dtype in (float, complex):
            for target in (op.n - 1, 1, 3):
                yield (f"cube{dim}-{dtype.__name__}-t{target}", op,
                       corner_start(dim, dtype), target, 300)
    even = cycle_walk(8)
    for target in (3, 4):
        yield f"cycle8-t{target}", even, localized(even), target, 200
        yield (f"cycle8-real-t{target}", even,
               spread_start(even, [0, 2, 6], float), target, 200)
        yield (f"cycle8-both-sides-t{target}", even,
               spread_start(even, [0, 1]), target, 200)
    odd = cycle_walk(7)
    for target in (3, 4):
        yield f"cycle7-t{target}", odd, localized(odd), target, 200
    k5 = cw.CoinedWalkOperator(graphs.complete(5), cw.coin("grover", d=4))
    for dtype in (float, complex):
        yield f"complete5-{dtype.__name__}", k5, spread_start(
            k5, [0], dtype), 2, 200
    cube = cw.CoinedWalkOperator(graphs.hypercube(3), cw.coin("dft", d=3))
    yield "cube3-dft-both-sides", cube, spread_start(cube, [0, 1, 6]), 7, 200
    per_vertex = cw.CoinedWalkOperator(
        graphs.cycle(6), [cw.coin("hadamard"), BALANCED] * 3)
    yield "cycle6-per-vertex", per_vertex, localized(per_vertex), 3, 200


HITTING_CASES = list(hitting_cases())


@pytest.mark.parametrize("op, psi0, target, horizon",
                         [case[1:] for case in HITTING_CASES],
                         ids=[case[0] for case in HITTING_CASES])
def test_hitting_keeps_every_byte_of_the_whole_state_walk(
        op, psi0, target, horizon, monkeypatch):
    def refuse(self, state):
        raise AssertionError("whole-state step")

    want = whole_state_hitting(op, psi0, target, horizon)
    monkeypatch.setattr(cw.CoinedWalkOperator, "step", refuse)
    res = cw.hitting_analysis(op, psi0, target, horizon, p=1e-3)
    assert res.one_shot.tobytes() == want[0].tobytes()
    assert res.first_hit.tobytes() == want[1].tobytes()
    assert res.concurrent == np.flatnonzero(np.cumsum(want[0]) >= 1e-3)[0]


@pytest.mark.parametrize("dim", range(2, 9))
def test_hitting_coins_one_side_of_the_cube(dim, monkeypatch):
    op = cw.CoinedWalkOperator(graphs.hypercube(dim), cw.coin("grover", d=dim))
    blocks = spy_coin(monkeypatch)
    res = cw.hitting_analysis(op, corner_start(dim), op.n - 1, 50)
    assert blocks == [((2, 2 ** (dim - 1), dim), np.dtype(float))] * 50
    # the antipode has the parity of dim: after steps of the other parity
    # both series are exactly zero
    assert not res.one_shot[1 - dim % 2::2].any()
    assert not res.first_hit[1 - dim % 2::2].any()


@pytest.mark.parametrize("name, rows", [("cycle8-t3", 4),
                                        ("cycle8-real-t4", 4),
                                        ("cycle7-t3", 7),
                                        ("complete5-float", 5),
                                        ("cube3-dft-both-sides", 8),
                                        ("cycle8-both-sides-t3", 8),
                                        ("cycle6-per-vertex", 6)])
def test_hitting_coins_one_side_only_from_a_start_on_one(name, rows,
                                                         monkeypatch):
    _, op, psi0, target, _ = next(case for case in HITTING_CASES
                                  if case[0] == name)
    blocks = spy_coin(monkeypatch)
    cw.hitting_analysis(op, psi0, target, 20, p=0.0)
    assert [shape for shape, _ in blocks] == [(2, rows, op.d)] * 20


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


def absorbing_oracle(m_max):
    """The hand-written absorbing walk: sites 0..m_max+2 with no wrap, the
    Hadamard coin as a sum and a difference, up moving right, down moving
    left, and site 0 emptied after every step."""
    psi = np.zeros((m_max + 3, 2), dtype=complex)
    psi[1, 0] = 1.0
    root2 = math.sqrt(2.0)
    per_step = np.zeros(m_max + 1)
    amplitudes = np.zeros(m_max + 1, dtype=complex)
    for step in range(1, m_max + 1):
        up = (psi[:, 0] + psi[:, 1]) / root2
        down = (psi[:, 0] - psi[:, 1]) / root2
        nxt = np.zeros_like(psi)
        nxt[1:, 0] = up[:-1]
        nxt[:-1, 1] = down[1:]
        assert up[-1] == 0.0
        amplitudes[step] = nxt[0, 1]
        per_step[step] = abs(nxt[0, 1]) ** 2 + abs(nxt[0, 0]) ** 2
        nxt[0] = 0.0
        psi = nxt
    return per_step, np.cumsum(per_step), amplitudes


def test_absorbing_walk_matches_the_hand_written_update():
    # a longer buffer only adds sites the walker never reaches, so every
    # shorter run is a prefix of the longest; at m_max = 3000 the far
    # front is dropped from step 2045 on, not stepped as subnormals
    for m_max, runs in ((200, range(1, 201)), (3000, [3000])):
        per_step, cumulative, amplitudes = absorbing_oracle(m_max)
        for m in runs:
            res = cw.absorbing_line_quantum(m)
            assert np.array_equal(res.cumulative, cumulative[:m + 1])
            assert np.max(np.abs(res.per_step - per_step[:m + 1])) <= 1e-15
            assert np.max(np.abs(res.amplitudes - amplitudes[:m + 1])) <= 1e-15


def stepped_absorbing_walk(m_max):
    """The absorbing walk without the wall's light cone: ``step`` on whole
    states of a cycle that never wraps, the wall row emptied and each
    underflowed front row zeroed after every step."""
    op = cycle_walk(m_max + 3)
    psi = np.zeros((op.n, 2))
    psi[1, 0] = 1.0
    per_step = np.zeros(m_max + 1)
    amplitudes = np.zeros(m_max + 1, dtype=complex)
    hi = 2
    for step in range(1, m_max + 1):
        psi = op.step(psi)
        amplitudes[step] = psi[0, 1]
        per_step[step] = abs(psi[0, 1]) ** 2 + abs(psi[0, 0]) ** 2
        psi[0] = 0.0
        hi += 1
        while hi > 2 and cw._underflowed(psi[hi - 1]):
            psi[hi - 1] = 0.0
            hi -= 1
    return per_step, np.cumsum(per_step), amplitudes


@pytest.mark.parametrize("m_maxes", [range(1, 301), [4200], [8000]],
                         ids=["1-300", "4200", "8000"])
def test_absorbing_light_cone_keeps_every_byte(m_maxes):
    # the stepped walk on a longer buffer reaches the same rows, so each
    # shorter run is, byte for byte, a prefix of the longest
    want = stepped_absorbing_walk(max(m_maxes))
    for m_max in m_maxes:
        got = cw.absorbing_line_quantum(m_max)
        for name, series, reference in zip(got._fields, got, want):
            assert series.tobytes() == reference[:m_max + 1].tobytes(), (
                name, m_max)


def route_the_absorbing_coin(monkeypatch, spy):
    """Send the coin product absorbing_line_quantum writes into its buffer,
    np.matmul(part, hadamard, out=buffer), through spy(product, part, out),
    where product() computes it into out and returns out."""
    matmul = np.matmul

    def routed(a, b, out=None):
        if out is None:
            return matmul(a, b)
        return spy(lambda: matmul(a, b, out=out), a, out)

    monkeypatch.setattr(np, "matmul", routed)


def test_absorbing_window_stops_at_the_underflowed_front(monkeypatch):
    m_max = 8000
    fronts = []

    def spy(product, part, out):
        # before step t + 1 row j holds site 2j + par, par = (1 + t) mod 2,
        # and the coin runs on the rows [0, k) that can be nonzero; a
        # dropped row is zeroed, so nothing is left past them, nor at the
        # wall, site 0, when row 0 holds it
        t = len(fronts)
        par = (1 + t) % 2
        k = len(part)
        assert not part.base[k:].any(), t
        assert par or not part[0].any(), t
        # and the rows end inside the wall's backward light cone: after
        # step t, no site beyond m_max - t
        front = 2 * (k - 1) + par
        assert front <= m_max - t, t
        fronts.append(front)
        return product()

    route_the_absorbing_coin(monkeypatch, spy)
    cw.absorbing_line_quantum(m_max)
    # step t + 1 runs on the sites up to t + 1, one more each step, until
    # the front 2^(-t/2) sinks below tiny = 2^-1022 after step 2044
    assert fronts[:2044] == list(range(1, 2045))
    assert fronts[2044] < 2045
    # the cone closes on the wall: the last step runs on site 0 alone
    assert fronts[-1] == 0 and len(fronts) == m_max


def test_absorbing_walk_coins_into_one_buffer(monkeypatch):
    buffers = set()

    def spy(product, part, out):
        # the first k rows of one buffer, as long as psi, every step
        assert out.shape == part.shape and out.base.shape == part.base.shape
        assert out.ctypes.data == out.base.ctypes.data
        buffers.add(id(out.base))
        got = product()
        assert got is out
        return got

    route_the_absorbing_coin(monkeypatch, spy)
    cw.absorbing_line_quantum(300)
    assert len(buffers) == 1


def inject_nan(state):
    # into the row of the largest amplitude, a site the walker occupies
    state[np.abs(state).max(axis=1).argmax(), 1] = np.nan


def leak(state):
    state *= 1.0 - 1e-6


def nan_beside_the_underflowed_front(state):
    # one NaN into the front row once that row lies below tiny, where a
    # rule that dropped rows with no entry >= tiny would discard it
    occupied = np.flatnonzero(state.any(axis=1))
    if occupied.size:
        front = occupied[-1]
        if np.abs(state[front]).max() < np.finfo(float).tiny:
            state[front, 1] = np.nan


# at m_max = 4200 the front underflows, near step 2045, before the wall's
# light cone reaches it, near step 2100
@pytest.mark.parametrize("damage, m_max", [
    (inject_nan, 10), (leak, 10), (nan_beside_the_underflowed_front, 4200),
], ids=["nan", "leak", "nan-at-the-underflowed-front"])
def test_absorbing_walk_fails_closed(monkeypatch, damage, m_max):
    nans = []

    def damaged(product, part, out):
        # the walk reads the coined rows from out, the buffer it passed
        out = product()
        damage(out)
        nans.append(int(np.isnan(out).sum()))
        return out

    route_the_absorbing_coin(monkeypatch, damaged)
    with pytest.raises(ToleranceError,
                       match="absorbed plus remaining probability"):
        cw.absorbing_line_quantum(m_max)
    # a NaN case fails because its NaN went in, not for some other reason
    assert (sum(nans) > 0) == (damage is not leak)


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
        u = op.dense()
        v, c = np.divmod(np.arange(op.n * op.d), op.d)
        for projectors in ("coin", "position", "both"):
            got = cw.decohere_evolve(op, 0.6, projectors, rho0, 4)
            keep = np.ones((op.n * op.d, op.n * op.d))
            if projectors != "coin":
                keep *= v[:, None] == v[None, :]
            if projectors != "position":
                keep *= c[:, None] == c[None, :]
            rho = rho0.matrix
            for _ in range(4):
                rho = u @ rho @ u.conj().T
                rho = 0.6 * rho + 0.4 * rho * keep
            assert np.max(np.abs(got.matrix - rho)) < 1e-12, projectors


def full_width_channel(op, p, projectors, rho0, m):
    """The decoherent walk conjugating the whole matrix through op.step,
    with the measurement factor built over the whole basis."""
    n, d = op.n, op.d
    v, c = np.divmod(np.arange(n * d), d)
    keep = np.ones((n * d, n * d))
    if projectors in ("position", "both", "edge-phase"):
        keep *= v[:, None] == v[None, :]
    if projectors in ("coin", "both", "edge-phase"):
        keep *= c[:, None] == c[None, :]
    factor = (p + (1.0 - p) * keep).reshape(n, d, n, d)
    rho = rho0.matrix.reshape(n, d, n, d)
    for _ in range(m):
        rho = op.step(rho.conj()).conj()
        rho = op.step(rho.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1) * factor
    flat = rho.reshape(n * d, n * d)
    return 0.5 * (flat + flat.conj().T)


def spy_coin(monkeypatch):
    """Record (shape, dtype) of every block the coin acts on."""
    coin = cw.CoinedWalkOperator._coin
    blocks = []

    def spy(self, part):
        blocks.append((part.shape, part.dtype))
        return coin(self, part)

    monkeypatch.setattr(cw.CoinedWalkOperator, "_coin", spy)
    return blocks


def sublattice_blocks(k0, m, d=2):
    """The blocks the coin sees on a parity sublattice from k0 rows: each
    step acts on k rows from the column side, then, from the row side, on
    the k + 1 rows that half-step leaves."""
    return [shape for k in range(k0, k0 + m)
            for shape in ((k, d, k, d), (k + 1, d, k, d))]


@pytest.mark.parametrize("projectors", ["coin", "position", "both",
                                        "edge-phase"])
@pytest.mark.parametrize("q, sigma, dtype", [(1.0, 0.0, float),
                                             (0.5, math.pi / 2, complex)])
def test_light_cone_channel_is_bit_equal_to_full_width(
        monkeypatch, projectors, q, sigma, dtype):
    for m in (0, 1, 2, 6, 40):
        op = cw.line_operator(m)
        rho0 = cw.DensityState.from_pure(cw.line_start(op, q, sigma))
        for p in (0.0, 0.4, 1.0):
            want = full_width_channel(op, p, projectors, rho0, m)
            blocks = spy_coin(monkeypatch)
            got = cw.decohere_evolve(op, p, projectors, rho0, m)
            monkeypatch.undo()
            assert np.array_equal(got.matrix, want), (m, p)
            # each step grows the occupied sublattice by one row, and a
            # real start runs in real arithmetic
            assert blocks == [(shape, np.dtype(dtype))
                              for shape in sublattice_blocks(1, m)]


@pytest.mark.parametrize("n, site, m, steps", [
    # the cone 3 - 7 .. 3 + 7 would wrap past site 0
    (9, 3, 7, [9] * 7),
    (20, 2, 3, [20] * 3),
    (9, 0, 1, [9]),
    (9, 8, 2, [9] * 2),
])
def test_light_cone_channel_goes_full_width_once_it_would_wrap(
        monkeypatch, n, site, m, steps):
    op = cycle_walk(n)
    psi = np.zeros((n, 2))
    psi[site] = 0.6, 0.8
    rho0 = cw.DensityState.from_pure(psi)
    for projectors in ("coin", "position", "both"):
        want = full_width_channel(op, 0.7, projectors, rho0, m)
        blocks = spy_coin(monkeypatch)
        got = cw.decohere_evolve(op, 0.7, projectors, rho0, m)
        monkeypatch.undo()
        assert np.array_equal(got.matrix, want)
        assert [shape[-2] for shape, _ in blocks[::2]] == steps
        assert {shape for shape, _ in blocks} == {(n, 2, n, 2)}


@pytest.mark.parametrize("n, sites, m, k0", [
    # one parity, with an empty row between the two occupied ones
    (25, (10, 14), 5, 3),
    (25, (11, 13), 5, 2),
    # mixed parity: the occupied sites are no sublattice
    (25, (10, 11), 5, None),
    (25, (9, 14), 5, None),
    # the cone 4 - 4 .. 4 + 4 fills the 9 sites of the cycle exactly
    (9, (4,), 4, 1),
    (9, (3,), 4, None),
    (9, (5,), 4, None),
    (9, (4,), 5, None),
])
def test_channel_steps_the_sublattice_of_one_parity_while_it_fits(
        monkeypatch, n, sites, m, k0):
    op = cycle_walk(n)
    psi = np.zeros((n, 2), dtype=complex)
    psi[sites[0]] = 0.6, 0.3j
    psi[sites[-1]] += -0.5, 0.4 + 0.2j
    psi /= np.linalg.norm(psi)
    rho0 = cw.DensityState.from_pure(psi)
    for projectors in ("coin", "position", "both", "edge-phase"):
        want = full_width_channel(op, 0.4, projectors, rho0, m)
        blocks = spy_coin(monkeypatch)
        got = cw.decohere_evolve(op, 0.4, projectors, rho0, m)
        monkeypatch.undo()
        assert np.array_equal(got.matrix, want), projectors
        assert [shape for shape, _ in blocks] == (
            [(n, 2, n, 2)] * (2 * m) if k0 is None
            else sublattice_blocks(k0, m))


def test_channel_with_one_coin_per_vertex_steps_full_width(monkeypatch):
    op = cw.CoinedWalkOperator(
        graphs.cycle(15), [cw.coin("hadamard" if v % 3 else "dft")
                           for v in range(15)])
    rho0 = cw.DensityState.from_pure(cw.line_start(op))
    want = full_width_channel(op, 0.4, "coin", rho0, 4)
    blocks = spy_coin(monkeypatch)
    got = cw.decohere_evolve(op, 0.4, "coin", rho0, 4)
    assert np.array_equal(got.matrix, want)
    assert blocks == [((15, 2, 15, 2), np.dtype(complex))] * 8


def test_channel_stays_full_width_off_the_cycle(monkeypatch):
    op = cw.CoinedWalkOperator(graphs.hypercube(3), cw.coin("grover", 3))
    rho0 = cw.DensityState.from_pure(localized(op, 5).real)
    want = full_width_channel(op, 0.3, "both", rho0, 3)
    blocks = spy_coin(monkeypatch)
    got = cw.decohere_evolve(op, 0.3, "both", rho0, 3)
    assert np.array_equal(got.matrix, want)
    assert blocks == [((8, 3, 8, 3), np.dtype(float))] * 6


def embedded(rng, n, rows, eigenvalues, dtype):
    """An n x n Hermitian matrix, zero outside the principal block on
    ``rows``, whose block has the given spectrum."""
    k = len(rows)
    z = rng.normal(size=(k, k))
    if dtype is complex:
        z = z + 1j * rng.normal(size=(k, k))
    q = np.linalg.qr(z)[0]
    out = np.zeros((n, n), dtype=complex)
    out[np.ix_(rows, rows)] = (q * eigenvalues) @ q.conj().T
    return out


def test_block_positivity_equals_full_spectrum():
    rng = np.random.default_rng(77)
    n = 30
    for trial in range(40):
        dtype = (float, complex)[trial % 2]
        k = int(rng.integers(1, n + 1))
        rows = np.sort(rng.choice(n, size=k, replace=False))
        values = rng.uniform(0.0, 1.0, size=k)
        if trial % 4 >= 2:
            values[0] = -rng.uniform(1e-6, 0.5)
        values /= values.sum()
        m = embedded(rng, n, rows, values, dtype)
        m = 0.5 * (m + m.conj().T)
        state = cw.DensityState((n, 1), m)
        full = float(np.linalg.eigvalsh(m)[0])
        if full >= -1e-10:
            assert abs(state.check_positive() - full) < 1e-12, trial
        else:
            with pytest.raises(ToleranceError, match="positivity"):
                state.check_positive()
            assert abs(state.check_positive(math.inf) - full) < 1e-12, trial


def test_channel_fails_closed_on_an_indefinite_or_non_finite_start():
    op = cw.line_operator(3)
    centre = op.n // 2 * op.d
    negative = np.zeros((op.n * op.d, op.n * op.d))
    negative[centre, centre], negative[centre + 1, centre + 1] = 1.5, -0.5
    huge = np.zeros((op.n * op.d, op.n * op.d))
    huge[centre:centre + 2, centre:centre + 2] = [[0.5, 1.5e308],
                                                  [1.5e308, 0.5]]
    for matrix in (negative, huge):
        rho0 = cw.DensityState((op.n, op.d), matrix)
        with pytest.raises(ToleranceError, match="positivity"):
            cw.decohere_evolve(op, 1.0, "both", rho0, 3)
    flat = cw.DensityState.from_pure(cw.line_start(op)).matrix.copy()
    flat[centre, centre] = np.nan
    nan = cw.DensityState._unchecked((op.n, op.d), flat)
    with pytest.raises(ToleranceError, match="positivity"):
        cw.decohere_evolve(op, 1.0, "both", nan, 3)
    with pytest.raises(ToleranceError, match="positivity"):
        nan.check_positive()


def test_density_state_owns_a_read_only_copy():
    matrix = np.diag([0.25, 0.75]).astype(complex)
    rho = cw.DensityState((2, 1), matrix)
    matrix[0, 0] = np.nan
    assert rho.matrix[0, 0] == 0.25
    with pytest.raises(ValueError, match="read-only"):
        rho.matrix[0, 0] = 1.0
    op = cw.line_operator(2)
    rho0 = cw.DensityState.from_pure(cw.line_start(op))
    evolved = cw.decohere_evolve(op, 0.5, "both", rho0, 2)
    assert not evolved.matrix.flags.writeable


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
    with pytest.raises(ValueError, match="step count m=-4"):
        cw.decohere_evolve(op, 0.5, "both", rho0, -4)


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
    family = rng.integers(3)
    if family == 0:
        g = graphs.cycle(int(rng.integers(3, 10)))
    elif family == 1:
        g = graphs.complete(int(rng.integers(3, 7)), loops=bool(rng.integers(2)))
    else:
        g = graphs.hypercube(int(rng.integers(1, 4)))
    d = graphs.color_edges(g).d
    options = ["grover", "dft"] + (["hadamard"] if d == 2 else [])
    kind = options[rng.integers(len(options))]
    if rng.random() < 0.25:
        # random unitary coins are not symmetric, so a coin applied as its
        # transpose shows up here
        makers = [lambda: cw.coin(kind, d),
                  lambda: random_unitary_coin(rng, d)]
        coins = [makers[rng.integers(2)]() for _ in range(g.n)]
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
        op = cw.CoinedWalkOperator(g, cw.Coin(2, np.eye(2)))
        u = op.dense().real
        assert np.array_equal(u, u.astype(bool).astype(float))
        assert np.all(u.sum(axis=0) == 1.0)
        assert np.all(u.sum(axis=1) == 1.0)
