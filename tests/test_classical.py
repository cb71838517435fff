"""Classical walk machinery: chains, limits, hitting, and the walk-based
algorithms."""

import dataclasses
import itertools
import math
import sys
import types

import numpy as np
import pytest
from helpers import (metropolis_chain, multiplicative_binomial,
                     whole_matrix_first_hit)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walklab import classical as cl
from walklab import ctqw, experiments, graphs
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


def test_binomial_row_is_exact_until_two_to_the_m_overflows():
    for m in (0, 1, 7, 64, 399, 1023):
        _, probs = cl.line_walk_binomial(m)
        want = [math.comb(m, k) / 2.0**m for k in range(m + 1)]
        assert probs[::2].tolist() == want
    with pytest.raises(OverflowError):
        cl.line_walk_binomial(1100)


def test_mirrored_binomial_row_keeps_every_byte():
    for m in range(1024):
        positions, probs = cl.line_walk_binomial(m)
        assert probs.tobytes() == multiplicative_binomial(m).tobytes(), m
        assert positions.tolist() == list(range(-m, m + 1))
    for m in (1024, 1100):
        with pytest.raises(OverflowError):
            cl.line_walk_binomial(m)


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
    chain = cl.unbiased_chain(graphs.Graph(5, [(0, j) for j in range(1, 5)]))
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


def test_stationary_refuses_a_chain_that_is_not_its_graphs_walk():
    # the lazy walk's matrix has lambda2 = 0.75 and no -1 eigenvalue, while
    # the graph's walk answers 0.5 and bipartite
    lazy = _lazy_cycle_chain()
    assert np.linalg.eigvalsh(lazy.matrix)[-2] == pytest.approx(0.75)
    with pytest.raises(ValueError, match="not the unbiased walk"):
        cl.stationary_and_limit(lazy)
    with pytest.raises(ValueError, match="not the unbiased walk"):
        cl.mixing_time(lazy, delta(6, 0), 0.05, t_max=100)
    walk = cl.unbiased_chain(graphs.cycle(6))
    for matrix in (np.full((6, 6), np.nan), walk.matrix[:5, :5],
                   np.where(np.eye(6, k=1) == 1, np.nan, walk.matrix)):
        with pytest.raises(ValueError, match="not the unbiased walk"):
            cl.stationary_and_limit(cl.MarkovChain(matrix, walk.graph))


@pytest.mark.parametrize("graph", [graphs.cycle(6), graphs.hypercube(3),
                                   graphs.complete(5, loops=True)],
                         ids=["cycle6", "cube3", "complete5-looped"])
def test_stationary_takes_the_walk_within_its_tolerance(graph):
    # the same answers, byte for byte, for a walk whose entries moved by
    # up to 1e-12, and a refusal just past it
    walk = cl.unbiased_chain(graph)
    want = cl.stationary_and_limit(walk)
    moved = walk.matrix.copy()
    moved[walk.matrix > 0] += 1e-12 - 2e-16
    got = cl.stationary_and_limit(cl.MarkovChain(moved, graph))
    for name, a, b in zip(want._fields, got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
    moved[walk.matrix > 0] += 4e-16
    with pytest.raises(ValueError, match="not the unbiased walk"):
        cl.stationary_and_limit(cl.MarkovChain(moved, graph))


# mixing


def test_mixing_complete_graph_with_loops():
    chain = cl.unbiased_chain(graphs.complete(8, loops=True))
    res = cl.mixing_time(chain, delta(8, 0), 0.01, t_max=200)
    assert res.steps <= 10


def test_mixing_bound_below_measured_on_cycle():
    chain = cl.unbiased_chain(graphs.cycle(7))
    res = cl.mixing_time(chain, delta(7, 0), 0.05, t_max=2000)
    assert 0.0 < res.spectral_bound <= res.steps


def test_mixing_fails_closed_on_a_nan_start():
    chain = cl.unbiased_chain(graphs.complete(8, loops=True))
    with pytest.raises(ValueError, match="no convergence"):
        cl.mixing_time(chain, np.full(8, np.nan), 0.01, t_max=50)


def test_trivial_epsilon_mixes_immediately():
    chain = cl.unbiased_chain(graphs.complete(8, loops=True))
    assert cl.mixing_time(chain, delta(8, 0), 2.0, t_max=50).steps == 0


def test_mixing_distances_follow_the_stepped_chain():
    chain = cl.unbiased_chain(graphs.cycle(7))
    res = cl.mixing_time(chain, delta(7, 0), 0.05, t_max=300)
    assert res.distances.shape == (301,)
    pi = np.full(7, 1.0 / 7)
    p = delta(7, 0)
    for t in range(301):
        assert res.distances[t] == pytest.approx(tvd(p, pi), abs=1e-15)
        p = chain.matrix @ p
    assert res.distances[res.steps - 1] > 0.05
    assert np.all(res.distances[res.steps:] <= 0.05)


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


def test_hitting_time_returns_its_first_hit_distribution():
    chain = cl.unbiased_chain(graphs.hypercube(3))
    res = cl.hitting_time(chain, 0, 7, horizon=200)
    f = cl.first_hit_distribution(chain, 0, 7, 200)
    assert np.array_equal(res.first_hit, f)
    assert res.mean_truncated == pytest.approx(float(np.arange(201) @ f),
                                               abs=1e-12)


def _looped_two_state_chain():
    return cl.MarkovChain(np.array([[0.75, 0.0], [0.25, 1.0]]),
                          graphs.complete(2, loops=True))


def _lazy_cycle_chain():
    # a matrix that holds still half the time on a loopless bipartite graph
    chain = cl.unbiased_chain(graphs.cycle(6))
    return cl.MarkovChain(0.5 * chain.matrix + 0.5 * np.eye(6), chain.graph)


# d-cubes from corner 0 to the far corner, to 1 on the odd side and to 3 on
# the even side; then bipartite graphs that are not cubes, two that are
# not bipartite, a looped chain and a lazy one on a loopless bipartite
# graph, which fill every row on both parities
_FIRST_HIT_CASES = (
    [pytest.param(lambda d=d: cl.unbiased_chain(graphs.hypercube(d)), 0, t,
                  id=f"cube{d}-to{t}")
     for d in range(2, 11) for t in sorted({2 ** d - 1, 1, 3})]
    + [pytest.param(lambda: cl.unbiased_chain(graphs.line(80)), 1, 0,
                    id="line80-1to0"),
       pytest.param(lambda: cl.unbiased_chain(graphs.line(80)), 40, 79,
                    id="line80-40to79"),
       pytest.param(lambda: cl.unbiased_chain(graphs.cycle(8)), 0, 3,
                    id="cycle8-0to3"),
       pytest.param(lambda: cl.unbiased_chain(graphs.cycle(8)), 5, 4,
                    id="cycle8-5to4"),
       pytest.param(lambda: cl.unbiased_chain(graphs.cycle(7)), 0, 3,
                    id="cycle7-0to3"),
       pytest.param(lambda: cl.unbiased_chain(graphs.complete(5)), 0, 2,
                    id="complete5-0to2"),
       pytest.param(_looped_two_state_chain, 0, 1, id="looped-0to1"),
       pytest.param(_lazy_cycle_chain, 0, 3, id="lazy-cycle6-0to3")])


@pytest.mark.parametrize("make, start, target", _FIRST_HIT_CASES)
def test_first_hit_keeps_every_byte_of_the_whole_matrix_scan(make, start,
                                                             target):
    chain = make()
    horizon = 200 if chain.matrix.shape[0] > 256 else 400
    got = cl.first_hit_distribution(chain, start, target, horizon)
    want = whole_matrix_first_hit(chain, start, target, horizon)
    assert got.tobytes() == want.tobytes()


class _RowSpy(np.ndarray):
    """A matrix that records the shape of every 2-d piece read from it."""

    seen = []

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if np.ndim(out) == 2:
            _RowSpy.seen.append(out.shape)
        return out


@pytest.mark.parametrize("d", range(2, 9))
def test_first_hit_multiplies_one_side_and_the_target_row(d):
    # a step onto the target's side fills that side; a step onto the other
    # fills it and the target's row
    g = graphs.hypercube(d)
    n, half = 2 ** d, 2 ** (d - 1)
    chain = cl.unbiased_chain(g)
    _RowSpy.seen = []
    spied = cl.MarkovChain(chain.matrix.view(_RowSpy), g)
    for target in (n - 1, 1):
        _RowSpy.seen.clear()
        f = cl.first_hit_distribution(spied, 0, target, 60)
        assert sorted(_RowSpy.seen) == [(half, n), (half + 1, n)]
        assert np.asarray(f).tobytes() == whole_matrix_first_hit(
            chain, 0, target, 60).tobytes()


def test_first_hit_fills_every_row_off_a_bipartite_graph():
    # or where the matrix steps within a side
    for chain in (cl.unbiased_chain(graphs.cycle(7)),
                  _looped_two_state_chain(), _lazy_cycle_chain()):
        n = chain.matrix.shape[0]
        _RowSpy.seen = []
        spied = cl.MarkovChain(chain.matrix.view(_RowSpy), chain.graph)
        cl.first_hit_distribution(spied, 0, 1, 10)
        assert _RowSpy.seen == [(n, n), (n, n)]


def test_hitting_start_equals_target():
    chain = cl.unbiased_chain(graphs.cycle(5))
    res = cl.hitting_time(chain, 3, 3)
    assert res[:3] == (0.0, 0.0, 1.0)
    assert res.first_hit.shape == (100_001,)
    assert not np.any(res.first_hit)


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


# Metropolis sampling and annealing


def test_metropolis_accepts_everything_at_beta_zero():
    model = cl.EnergyModel(2, lambda s: float(s), lambda s, r: 1 - s)
    _, accepted = metropolis_chain(model, 0.0, 1000, 3)
    assert accepted == 1000


def test_metropolis_two_state_occupancy():
    model = cl.EnergyModel(2, lambda s: float(s), lambda s, r: 1 - s)
    samples, _ = metropolis_chain(model, 1.0, 1_000_000, 11)
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
    samples, _ = metropolis_chain(model, beta, 300_000, 17)
    counts = np.zeros((3, 3))
    for a, b in zip(samples[:-1], samples[1:]):
        counts[b, a] += 1
    freq = counts / counts.sum(axis=0, keepdims=True)
    assert np.max(np.abs(freq - kernel)) < 0.01


def test_metropolis_rejects_negative_beta():
    model = cl.EnergyModel(2, lambda s: float(s), lambda s, r: 1 - s)
    with pytest.raises(ValueError):
        metropolis_chain(model, -0.1, 10, 0)


def test_metropolis_rejects_negative_step_count():
    model = cl.EnergyModel(2, lambda s: float(s), lambda s, r: 1 - s)
    with pytest.raises(ValueError, match="step count"):
        metropolis_chain(model, 1.0, -1, 0)


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
    # schedules that never cool below tmin: 2.5e-323 * 0.9 rounds back to
    # 2.5e-323, and inf * 0.9 is inf
    for t0, tmin in [(2.0, math.nan), (math.nan, 0.05), (math.inf, 0.05),
                     (2.0, 5e-324), (2.0, 2.5e-323),
                     (2.0, sys.float_info.min / 2)]:
        with pytest.raises(ValueError, match="finite t0 and a normal tmin"):
            cl.simulated_annealing(model, t0, 0.9, tmin, 1, 0)
    # down to the smallest normal double: 6,731 levels from t0 = 2 at
    # mu = 0.9, each below the last
    levels = []
    model = cl.EnergyModel(2, lambda s: float(s),
                           lambda s, r: levels.append(1) or 1 - s)
    cl.simulated_annealing(model, 2.0, 0.9, sys.float_info.min, 1, 0)
    t = 2.0
    while t >= sys.float_info.min:
        levels.pop()
        t *= 0.9
    assert not levels


# replayed draws: a bit-flip model's moves draw through classical._move_source,
# which replays a PCG64 Generator's integers(bits) and random() from its raw
# words and hands the stream back where the Generator's own draws would
# leave it; nand's coin flips read the Generator's integers(2, size=4096)
# blocks through experiments._CoinFlips.  Both must give the Generator's
# scalar draws.

REPLAY_BOUNDS = (1, 2, 3, 10, 2 ** 31, 2 ** 31 + 1, 3 * 2 ** 30,
                 2 ** 32 - 1, 2 ** 32)


def assert_same_stream(rng, twin):
    """The two Generators stand at the same place: their next 100 draws,
    and for PCG64 their whole state, buffered half-word included, agree."""
    if isinstance(rng.bit_generator, np.random.PCG64):
        assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.integers(7, size=50).tolist() == twin.integers(7, size=50).tolist()
    assert rng.random(50).tolist() == twin.random(50).tolist()


class CountedDraws:
    """A Generator's ``integers``, counting the calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, k):
        self.calls += 1
        return self.rng.integers(k)


def nand_draws(rng):
    """The hard instance of every depth 0-12 and its classical cost over
    three trials, as ``experiments`` draws them, from ``rng``."""
    out = []
    for depth in range(13):
        tree = ctqw.hard_nand_instance(depth, rng)
        out.append((tree, ctqw.classical_nand_cost(tree, rng, 3)))
    return out


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("prior", [0, 1])
def test_replay_matches_generator_draw_for_draw(seed, prior):
    """NEP 19 does not promise numpy's streams across versions, so this
    pins nand's coin flips to the installed numpy: fed the coin-flip source
    or a twin Generator, the nand functions give the same trees and costs,
    over more than two 4,096-bit blocks, and then the same next 100 bits.
    One prior integers(5) call starts with a half-word buffered."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(prior):
        rng.integers(5), twin.integers(5)
    flips, counted = experiments._CoinFlips(rng), CountedDraws(twin)
    assert nand_draws(flips) == nand_draws(counted)
    assert counted.calls > 2 * 4096
    assert ([flips.integers(2) for _ in range(100)]
            == [int(twin.integers(2)) for _ in range(100)])


def test_replay_refuses_other_bounds():
    """The coin-flip source serves integers(2) only: any other bound raises
    and takes no bit from the stream."""
    for bound in (0, 1, 3, 2 ** 32, 2.5, None):
        flips = experiments._CoinFlips(np.random.default_rng(8))
        first = flips.integers(2)
        with pytest.raises(ValueError, match="integers\\(2\\) only"):
            flips.integers(bound)
        rest = [flips.integers(2) for _ in range(50)]
        assert [first, *rest] == np.random.default_rng(8).integers(
            2, size=51).tolist()


def test_replay_leaves_other_bit_generators_alone():
    model = cl.EnergyModel.bit_flip(5, rough_energy)
    rng = np.random.Generator(np.random.Philox(3))
    with cl._move_source(model, rng) as draws:
        assert draws is rng


def direct_chain(model, beta, steps, rng, start):
    """Metropolis written against the Generator itself."""
    state, e_here, visited = start, model.energy(start), [start]
    for _ in range(steps):
        candidate = model.propose(state, rng)
        e_there = model.energy(candidate)
        de = e_there - e_here
        if de <= 0.0 or rng.random() < math.exp(-beta * de):
            state, e_here = candidate, e_there
        visited.append(state)
    return visited


def flip_model(bits, stop=None):
    """Bit-flip proposals with a bit-count energy; ``propose`` raises
    KeyError once it has been called ``stop`` times."""
    calls = []

    def propose(s, r):
        if len(calls) == stop:
            raise KeyError(stop)
        calls.append(s)
        return s ^ (1 << int(r.integers(bits)))

    return cl.EnergyModel(2 ** bits, lambda s: float(s.bit_count()), propose)


@pytest.mark.parametrize("make", [np.random.PCG64, np.random.Philox])
def test_metropolis_chain_matches_direct_loop(make):
    rng, twin = np.random.Generator(make(6)), np.random.Generator(make(6))
    samples, _ = metropolis_chain(flip_model(5), 0.7, 500, rng, start=3)
    assert samples.tolist() == direct_chain(flip_model(5), 0.7, 500, twin, 3)
    assert_same_stream(rng, twin)


@pytest.mark.parametrize("stop", [0, 1, 57])
def test_replay_hands_the_stream_back_when_propose_raises(stop):
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(KeyError):
        metropolis_chain(flip_model(5, stop), 0.7, 100, rng, start=3)
    with pytest.raises(KeyError):
        direct_chain(flip_model(5, stop), 0.7, 100, twin, 3)
    assert_same_stream(rng, twin)
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(KeyError):
        cl.simulated_annealing(flip_model(5, stop), 2.0, 0.5, 0.1, 20, rng)
    model, state, t = flip_model(5, stop), int(twin.integers(32)), 2.0
    with pytest.raises(KeyError):
        while t >= 0.1:
            state = direct_chain(model, 1.0 / t, 20, twin, state)[-1]
            t *= 0.5
    assert_same_stream(rng, twin)


def test_generic_proposals_may_call_any_generator_method():
    """Only the bit-flip form is replayed: any other ``propose`` gets the
    caller's Generator, so it may draw through any of its methods."""
    def propose(s, r):
        step = r.choice([-1, 1]) * (1 + int(r.random(3).argmax()))
        return (s + int(step)) % 16

    model = cl.EnergyModel(16, lambda s: 0.3 * abs(s - 5), propose)
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    final = cl.simulated_annealing(model, 2.0, 0.7, 0.2, 30, rng)
    state, t = int(twin.integers(16)), 2.0
    while t >= 0.2:
        state = direct_chain(model, 1.0 / t, 30, twin, state)[-1]
        t *= 0.7
    assert final == state
    assert_same_stream(rng, twin)
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    betas = [0.0, 0.5, 1.0]
    res = cl.telescoping_partition_estimate(model, betas, 50, rng, thin_steps=4)
    state, want = int(twin.integers(16)), []
    for b_here, b_next in zip(betas[:-1], betas[1:]):
        total = 0.0
        for _ in range(50):
            state = direct_chain(model, b_here, 4, twin, state)[-1]
            total += math.exp(-(b_next - b_here) * model.energy(state))
        want.append(total / 50)
    assert res.level_means == want
    assert_same_stream(rng, twin)


# the bit-flip form: EnergyModel.bit_flip moves run in _Draws.flip_moves,
# which must draw and decide exactly as the generic loop does


def rough_energy(s):
    """A rough landscape over bitstrings of any width."""
    return (s * 2654435761 % 1009) / 100.0


def plateau_energy(s):
    """Half the bit count: about half the flips leave the energy alone."""
    return float(s.bit_count() // 2)


def two_rise_energy(s):
    """Bit count plus half the low bit: setting bit 0 rises by 1.5 and any
    other bit by 1, so the uphill rises interleave two values."""
    return s.bit_count() + (s & 1) / 2


def odd_energy(s):
    """Bit counts, with NaN and +inf energies among them."""
    if s % 7 == 3:
        return math.nan
    if s % 5 == 1:
        return math.inf
    return float(s.bit_count())


@pytest.fixture
def fast_only(monkeypatch):
    """The bit-flip ``propose`` may not run: flip_moves must draw itself."""
    def forbidden(self, state, draws):
        raise AssertionError("the bit-flip model left the inlined loop")

    monkeypatch.setattr(cl._BitFlip, "__call__", forbidden)


def any_width_bit_flip(bits, energy):
    """The model ``EnergyModel.bit_flip(bits, energy)`` builds, at any
    width: the replay serves every width, though ``bit_flip`` stops at 63
    bits, where the samplers' start draw ``integers(2 ** bits)`` does."""
    return cl.EnergyModel(2 ** bits, energy, cl._BitFlip(bits))


def fast_and_generic(bits, energy, beta, seed, calls, prior=0):
    """Run ``calls`` (start, steps) or (start, steps, samples) segments of
    Metropolis on the bit-flip model and on the same model with a plain
    ``propose``, each on a Generator seeded alike after ``prior`` integers
    draws: the bit-flip one replayed, the plain one on the Generator's own
    draws.  A call that is an int k draws ``integers(k)`` from the Generator
    between replays; each run of segments between such calls shares one
    fresh ``_move_source``.  Returns the two lists of results and the two
    Generators."""
    fast = any_width_bit_flip(bits, energy)
    generic = dataclasses.replace(
        fast, propose=lambda s, r: s ^ (1 << int(r.integers(bits))))
    out = []
    for model in (fast, generic):
        rng = np.random.default_rng(seed)
        for _ in range(prior):
            rng.integers(5)
        results = []
        for drawn, run in itertools.groupby(calls, lambda c: type(c) is int):
            if drawn:
                results += [int(rng.integers(k)) for k in run]
                continue
            with cl._move_source(model, rng) as draws:
                for start, steps, *samples in run:
                    results.append(cl._metropolis(model, beta, steps, draws,
                                                  start, energy(start),
                                                  *samples))
        out.append((results, rng))
    (fast_results, fast_rng), (generic_results, generic_rng) = out
    return fast_results, generic_results, fast_rng, generic_rng


@pytest.mark.parametrize("bits", [1, 2, 3, 10, 20])
@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0, math.inf])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("energy", [rough_energy, plateau_energy,
                                    int.bit_count, two_rise_energy])
def test_bit_flip_moves_match_the_generic_loop(fast_only, energy, bits, beta,
                                               seed):
    fast, generic, rng, twin = fast_and_generic(
        bits, energy, beta, seed, [(seed, 400), (5 % 2 ** bits, 37)],
        prior=seed % 2)
    # repr tells floats apart exactly, and NaN from NaN
    assert repr(fast) == repr(generic)
    assert_same_stream(rng, twin)


@pytest.mark.parametrize("energy, rises", [(int.bit_count, {1}),
                                           (plateau_energy, {1}),
                                           (two_rise_energy, {1, 1.5})])
def test_bit_flip_moves_weigh_a_repeated_rise_once(fast_only, monkeypatch,
                                                    energy, rises):
    # exp(-beta de) runs only when the uphill de differs from the last one:
    # once for a single rise, and at every change between two
    exp, calls = math.exp, []

    def counted(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(math, "exp", counted)
    model = cl.EnergyModel.bit_flip(6, energy)
    with cl._move_source(model, np.random.default_rng(4)) as draws:
        cl._metropolis(model, 0.8, 500, draws, 0, energy(0))
    assert set(calls) == {-0.8 * rise for rise in rises}
    assert all(a != b for a, b in zip(calls, calls[1:]))
    assert len(calls) == 1 if len(rises) == 1 else len(calls) > 10


@pytest.mark.parametrize("start", [0, 1, 3, 6])
@pytest.mark.parametrize("beta", [0.0, 1.0, math.inf])
def test_bit_flip_moves_match_on_nan_and_inf_energies(fast_only, start, beta):
    fast, generic, rng, twin = fast_and_generic(
        6, odd_energy, beta, 11, [(start, 300)])
    assert repr(fast) == repr(generic)
    assert_same_stream(rng, twin)


def test_bit_flip_moves_match_across_refills(fast_only):
    """20,000 moves in 400 segments read past several 4,096-word blocks,
    with a segment boundary at every buffered state."""
    fast, generic, rng, twin = fast_and_generic(
        10, rough_energy, 0.4, 7, [(3, 50)] * 400)
    assert repr(fast) == repr(generic)
    assert sum(accepted for _, _, accepted in fast) > 5000
    assert_same_stream(rng, twin)


@pytest.mark.parametrize("bits", [63, 64, 70])
def test_bit_flip_moves_match_at_wide_widths(fast_only, bits):
    """Bit indices of 63 and up flip bits no 64-bit mask could hold."""
    fast, generic, rng, twin = fast_and_generic(
        bits, rough_energy, 0.3, 5, [(2 ** bits - 1, 300), (12345, 50, 4)],
        prior=1)
    assert repr(fast) == repr(generic)
    assert (fast[0][0] ^ 2 ** bits - 1) >> bits - 1 == 1  # the top bit moved
    assert_same_stream(rng, twin)


def test_rounds_run_on_from_each_other(fast_only):
    """``samples`` rounds in one call are the rounds of as many calls."""
    for model in (cl.EnergyModel.bit_flip(6, rough_energy),
                  cl.EnergyModel(64, rough_energy,
                                 lambda s, r: s ^ (1 << int(r.integers(6))))):
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        with cl._move_source(model, rng) as draws:
            got = cl._metropolis(model, 0.8, 7, draws, 5, rough_energy(5), 30)
        state, energies, accepted = 5, [], 0
        with cl._move_source(model, twin) as draws:
            for _ in range(30):
                state, (e_here,), moved = cl._metropolis(
                    model, 0.8, 7, draws, state, rough_energy(state))
                energies.append(e_here)
                accepted += moved
        assert repr(got) == repr((state, energies, accepted))
        assert_same_stream(rng, twin)


def test_telescoping_levels_match_the_generic_loop(fast_only):
    betas = [0.0, 0.3, 0.9, 2.0]
    fast = cl.EnergyModel.bit_flip(7, rough_energy)
    generic = dataclasses.replace(
        fast, propose=lambda s, r: s ^ (1 << int(r.integers(7))))
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)
    got = cl.telescoping_partition_estimate(fast, betas, 300, rng, 3)
    want = cl.telescoping_partition_estimate(generic, betas, 300, twin, 3)
    assert repr(got) == repr(want)
    assert_same_stream(rng, twin)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bits=st.integers(1, 70),
       beta=st.sampled_from([0.0, math.inf]) | st.floats(0.0, 5.0),
       seed=st.integers(0, 2 ** 64 - 1), prior=st.integers(0, 3),
       energy=st.sampled_from([rough_energy, plateau_energy, odd_energy]),
       segments=st.lists(st.tuples(st.lists(st.sampled_from(REPLAY_BOUNDS),
                                            max_size=3),
                                   st.integers(0, 2 ** 70), st.integers(0, 60),
                                   st.integers(0, 8)), min_size=1, max_size=6))
def test_replay_matches_the_generic_loop_for_any_segments(
        fast_only, bits, beta, seed, prior, energy, segments):
    """Any width, temperature, seed, half-word buffered or not, and any
    run of segments, 0-step and 0-round ones included, with integers(k)
    draws on the Generator before each segment: a replay starts wherever
    those left the stream, and segments with none between them share one
    replay."""
    calls = []
    for bounds, start, steps, samples in segments:
        calls += bounds + [(start % 2 ** bits, steps, samples)]
    fast, generic, rng, twin = fast_and_generic(bits, energy, beta, seed,
                                                calls, prior)
    assert repr(fast) == repr(generic)
    assert_same_stream(rng, twin)


class CraftedBits:
    """A stand-in for PCG64 that hands out ``words`` in order, and keeps
    the state fields ``_Draws`` reads and restores, with ``used`` for the
    stream position."""

    def __init__(self, words, has, half):
        self.words = words
        self.state = {"has_uint32": has, "uinteger": half, "used": 0}

    @property
    def state(self):
        return dict(self._state)

    @state.setter
    def state(self, value):
        self._state = dict(value)

    def random_raw(self, size):
        start = self._state["used"]
        self._state["used"] += size
        assert start + size <= len(self.words), "ran out of crafted words"
        return np.array(self.words[start:start + size], dtype=np.uint64)

    def advance(self, delta):
        self._state["used"] += delta


def rejected_halves(k):
    """The 32-bit halves x whose product x k Lemire rejects: low 32 bits
    below 2^32 mod k.  Any such x is the ceiling of q 2^32 / k for some q."""
    threshold = 2 ** 32 % k
    return [x for x in {-(-q * 2 ** 32 // k) for q in range(k)}
            if x * k % 2 ** 32 < threshold]


def plain_moves(words, has, half, bits, energy, beta, steps, samples, state):
    """Metropolis on numpy's bounded draw, written out on ``words``:
    next_uint32 with its buffered half, Lemire's rejection as numpy writes
    it, and next_double.  Returns the result, the words used, the final
    (has, half) and the number of rejected halves."""
    pos = rejected = accepted = 0
    e_here, energies = energy(state), []

    def uint32():
        nonlocal pos, has, half
        if has:
            has = 0
            return half
        word, pos, has = words[pos], pos + 1, 1
        half = word >> 32
        return word & 0xFFFFFFFF

    for _ in range(samples):
        for _ in range(steps):
            b = 0
            if bits > 1:
                m = uint32() * bits
                if m & 0xFFFFFFFF < bits:
                    while m & 0xFFFFFFFF < (2 ** 32 - bits) % bits:
                        rejected += 1
                        m = uint32() * bits
                b = m >> 32
            candidate = state ^ (1 << b)
            e_there = energy(candidate)
            de = e_there - e_here
            if not de <= 0.0:
                word, pos = words[pos], pos + 1
                if not (word >> 11) * 2.0 ** -53 < math.exp(-beta * de):
                    continue
            state, e_here = candidate, e_there
            accepted += 1
        energies.append(e_here)
    return (state, energies, accepted), pos, has, half, rejected


@pytest.mark.parametrize("bits", [3, 5, 10, 100])
@pytest.mark.parametrize("has, half", [(0, 0), (0, 7), (1, 0), (1, 2 ** 31)])
def test_bit_flip_moves_take_lemire_rejections(fast_only, bits, has, half):
    """Words whose halves Lemire rejects, fed through a crafted bit
    generator across block refills, give the plain reference's moves,
    stream position and buffered half.  A half of 0 is rejected at every
    width that does not divide 2^32."""
    pick = np.random.default_rng(bits)
    bad = rejected_halves(bits)
    words = []
    for _ in range(64 + 128 + 384 + 1152):  # _Draws's first four blocks
        low, high = (int(x) for x in pick.integers(2 ** 32, size=2))
        if pick.random() < 0.3:
            low = bad[pick.integers(len(bad))]
        if pick.random() < 0.3:
            high = bad[pick.integers(len(bad))]
        words.append(high << 32 | low)
    want, used, want_has, want_half, rejected = plain_moves(
        words, has, half, bits, rough_energy, 0.5, 9, 60, 3)
    assert 0 in bad and rejected > 50 and used > 64 + 128 + 384
    bit_generator = CraftedBits(words, has, half)
    model = any_width_bit_flip(bits, rough_energy)
    draws = cl._Draws(types.SimpleNamespace(bit_generator=bit_generator))
    got = cl._metropolis(model, 0.5, 9, draws, 3, rough_energy(3), 60)
    draws.close()
    assert repr(got) == repr(want)
    assert bit_generator.state == {"has_uint32": want_has,
                                   "uinteger": want_half, "used": used}


@pytest.mark.parametrize("stop", [0, 1, 2, 57, 3000])
def test_bit_flip_moves_hand_the_stream_back_when_energy_raises(fast_only, stop):
    def raising(bits):
        calls = []

        def energy(s):
            if len(calls) == stop:
                raise KeyError(stop)
            calls.append(s)
            return rough_energy(s)

        return energy

    rngs = []
    for model in (cl.EnergyModel.bit_flip(5, raising(5)),
                  cl.EnergyModel(32, raising(5),
                                 lambda s, r: s ^ (1 << int(r.integers(5))))):
        rng = np.random.default_rng(4)
        with pytest.raises(KeyError):
            cl.telescoping_partition_estimate(model, [0.0, 0.5, 1.0], 200, rng)
        rngs.append(rng)
    assert_same_stream(*rngs)


def test_bit_flip_on_other_generators_runs_the_generic_loop():
    model = cl.EnergyModel.bit_flip(5, rough_energy)
    rng = np.random.Generator(np.random.Philox(6))
    twin = np.random.Generator(np.random.Philox(6))
    samples, _ = metropolis_chain(model, 0.7, 500, rng, start=3)
    assert samples.tolist() == direct_chain(model, 0.7, 500, twin, 3)
    assert_same_stream(rng, twin)


@pytest.mark.parametrize("bits", [0, -1, 2.0, True])
def test_bit_flip_needs_a_positive_integer_width(bits):
    with pytest.raises(ValueError, match="bit count"):
        cl.EnergyModel.bit_flip(bits, rough_energy)


@pytest.mark.parametrize("bits", [64, 2 ** 32 + 1, 2 ** 33, 2 ** 64])
def test_bit_flip_refuses_widths_past_two_to_the_32(bits):
    """Both samplers draw their start as integers(2^bits), which numpy
    refuses from 64 bits on; past 2^32 the replay's 32-bit draw would also
    reject every half-word.  The check comes before the model's 2^bits
    state count is built."""
    with pytest.raises(ValueError, match="at most 63 bits"):
        cl.EnergyModel.bit_flip(bits, rough_energy)


def test_bit_flip_takes_wide_widths_below_the_bound():
    # the widest model both samplers run
    model = cl.EnergyModel.bit_flip(63, rough_energy)
    assert model.propose == cl._BitFlip(63)
    assert model.num_states == 2 ** 63
    state = cl.simulated_annealing(model, 1.0, 0.5, 0.3, 20, 0)
    assert 0 <= state < 2 ** 63
    estimate = cl.telescoping_partition_estimate(model, [0.0, 0.1], 5, 0)
    assert estimate.z_hat > 0.0


@pytest.mark.parametrize("name, sampler", [
    ("mcmc-partition", "telescoping_partition_estimate"),
    ("annealing", "simulated_annealing")])
def test_bit_flip_experiments_build_the_bit_flip_form(monkeypatch, tmp_path,
                                                      name, sampler):
    from walklab import experiments

    seen = []
    original = getattr(cl, sampler)

    def spy(model, *args):
        seen.append(model.propose)
        return original(model, *args)

    monkeypatch.setattr(cl, sampler, spy)
    spec = experiments.ExperimentSpec(name, {"bits": "3"}, 0, str(tmp_path))
    assert experiments.run(spec) == 0
    assert seen and all(p == cl._BitFlip(3) for p in seen)


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
