"""Classical random walks on graphs, their limit theory, and walk-based
sampling: Metropolis chains, simulated annealing, and the telescoping-product
partition-function estimator.

Markov chains are stored column-stochastically: ``matrix[j, i]`` is the
probability of stepping from vertex i to vertex j, so distributions evolve as
``p_next = matrix @ p``.
"""

import contextlib
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from walklab import graphs as _graphs
from walklab.distributions import tvd

__all__ = [
    "MarkovChain",
    "unbiased_chain",
    "evolve",
    "stationary_and_limit",
    "StationaryResult",
    "mixing_time",
    "MixingResult",
    "spectral_lower_bound",
    "first_hit_distribution",
    "hitting_time",
    "HittingResult",
    "absorbing_hit_prob_line",
    "line_walk_binomial",
    "line_walk_gaussian",
    "EnergyModel",
    "simulated_annealing",
    "telescoping_partition_estimate",
    "TelescopingResult",
]


@dataclass(frozen=True)
class MarkovChain:
    """Column-stochastic transition matrix bound to its graph."""

    matrix: np.ndarray
    graph: _graphs.Graph


def unbiased_chain(g):
    """Chain that leaves each vertex along a uniformly random edge."""
    deg = _graphs.degrees(g)
    if np.any(deg == 0):
        raise ValueError("isolated vertex has no outgoing step")
    a = _graphs.adjacency(g)
    return MarkovChain(a / deg[np.newaxis, :], g)


def evolve(chain, p0, m):
    """Distribution after m steps of the chain."""
    if m < 0:
        raise ValueError("step count must be nonnegative")
    p = np.asarray(p0, dtype=float)
    if p.shape[0] != chain.matrix.shape[0]:
        raise ValueError("distribution does not match the chain dimension")
    for _ in range(m):
        p = chain.matrix @ p
    return p


StationaryResult = namedtuple("StationaryResult", "pi spectrum bipartite")

# Largest difference stationary_and_limit allows between an entry of a
# chain's matrix and the same entry of its graph's unbiased walk.
_WALK_TOL = 1e-12


def stationary_and_limit(chain):
    """Stationary distribution d/2|E| plus the symmetrized spectrum.

    The spectrum comes from D^{-1/2} A D^{-1/2}, which is similar to the
    transition matrix and symmetric, so its eigenvalues are real and lie in
    [-1, 1]; they are returned in descending order.  Bipartite graphs never
    converge pointwise (the -1 eigenvalue keeps oscillating) and are flagged.

    All three describe the unbiased walk on ``chain.graph``, so a chain
    whose matrix differs from that walk by more than 1e-12 in any entry,
    or holds a NaN, is refused with ValueError; ``mixing_time`` inherits
    the check.
    """
    g = chain.graph
    deg = _graphs.degrees(g).astype(float)
    a = _graphs.adjacency(g)
    # a NaN difference is within no tolerance
    if (chain.matrix.shape != a.shape
            or not np.all(np.abs(chain.matrix - a / deg) <= _WALK_TOL)):
        raise ValueError("the chain's matrix is not the unbiased walk on its "
                         f"graph to within {_WALK_TOL}, and the "
                         "stationary law and spectrum are that walk's")
    pi = deg / deg.sum()
    inv_sqrt = 1.0 / np.sqrt(deg)
    q = a * np.outer(inv_sqrt, inv_sqrt)
    values = np.linalg.eigvalsh(q)[::-1]
    return StationaryResult(pi, values, _graphs.is_bipartite(g))


MixingResult = namedtuple("MixingResult", "steps spectral_bound distances")


def spectral_lower_bound(lambda2, eps):
    """Spectral-gap lower bound lambda2/(1 - lambda2) * ln(1/(2 eps))."""
    if eps >= 0.5:
        return 0.0
    return lambda2 / (1.0 - lambda2) * math.log(1.0 / (2.0 * eps))


def mixing_time(chain, p0, eps, t_max=100_000):
    """First time after which the evolved distribution stays eps-close to
    the stationary one, checked at every integer step up to ``t_max``.

    Also reports the spectral lower bound from the second eigenvalue, and
    in ``distances`` the distance at every step t = 0..t_max of the scan.
    Distances use the package's doubled total-variation convention, so
    eps = 2 is trivially satisfied at time 0.  A NaN distance is not
    eps-close, so a NaN start never converges.
    """
    pi, spectrum, bipartite = stationary_and_limit(chain)
    bound = spectral_lower_bound(float(spectrum[1]), eps)
    p = np.asarray(p0, dtype=float)
    matrix = chain.matrix
    distances = np.empty(t_max + 1)
    for t in range(t_max + 1):
        distances[t] = tvd(p, pi)
        p = matrix @ p
    bad = np.flatnonzero(~(distances <= eps))
    last_bad = int(bad[-1]) if bad.size else -1
    if last_bad == t_max:
        raise ValueError(f"no convergence within t_max={t_max} steps"
                         + (" (bipartite graph)" if bipartite else ""))
    return MixingResult(last_bad + 1, bound, distances)


def first_hit_distribution(chain, start, target, horizon):
    """Probability of arriving at ``target`` for the first time at each step.

    Returns an array f[1..horizon] (index 0 unused) computed by absorbing
    the target column.  On a bipartite graph the walker is on the side of
    ``start`` after an even number of steps and on the other side after an
    odd number, so each step multiplies only the rows of the side it fills
    plus the target's row, which holds the absorbed mass; every other entry
    stays +0.0, as the whole product leaves it.  Each row still runs over
    every column, so the sums are the whole product's.  On any other graph,
    one with loops, or a matrix that steps between two vertices of one
    side, every row is filled at every step.
    """
    n = chain.matrix.shape[0]
    absorbed = chain.matrix.copy()
    absorbed[:, target] = 0.0
    absorbed[target, target] = 1.0
    label = _graphs.bipartition(chain.graph)
    if label is None or chain.matrix[label[:, None] == label].any():
        # not bipartite, or a matrix that also steps within a side
        rows = (slice(None),) * 2
    else:
        # step m fills rows[m % 2]
        here = label == label[start]
        rows = []
        for side in (here, ~here):
            side[target] = True
            rows.append(np.flatnonzero(side))
    blocks = [absorbed[r] for r in rows]
    filled = (np.zeros(n), np.zeros(n))
    p = np.zeros(n)
    p[start] = 1.0
    f = np.zeros(horizon + 1)
    for m in range(1, horizon + 1):
        seen = p[target]
        p, prev = filled[m % 2], p
        p[rows[m % 2]] = blocks[m % 2] @ prev
        f[m] = p[target] - seen
    return f


HittingResult = namedtuple("HittingResult",
                           "mean_truncated tail_mass restart_estimate first_hit")


def hitting_time(chain, start, target, horizon=100_000):
    """Truncated mean first-arrival time plus the not-yet-hit mass.

    The mean sums m * f(m) over the horizon, where f is the first-hit
    distribution, returned as ``first_hit``; on recurrent-but-null chains
    (the half-line walk toward its endpoint) this grows without bound as the
    horizon does, which is the faithful behavior.  The restart estimate is
    1/p for p the cumulative hit probability inside the horizon, the
    expected number of independent restarts needed to see one arrival.
    """
    if start == target:
        return HittingResult(0.0, 0.0, 1.0, np.zeros(horizon + 1))
    f = first_hit_distribution(chain, start, target, horizon)
    steps = np.arange(horizon + 1)
    cumulative = float(f.sum())
    tail = 1.0 - cumulative
    restart = math.inf if cumulative == 0.0 else 1.0 / cumulative
    return HittingResult(float(steps @ f), tail, restart, f)


def absorbing_hit_prob_line(p_away):
    """Probability that a walker starting next to the end of a half-line
    ever reaches the end, when each step moves away with probability
    ``p_away``.

    The return probability r satisfies r = (1 - p) + p r^2; the physical
    root is min(1, (1-p)/p).
    """
    if not 0.0 < p_away < 1.0:
        raise ValueError("step probability must be strictly between 0 and 1")
    return min(1.0, (1.0 - p_away) / p_away)


def line_walk_binomial(m):
    """Exact distribution of m fair steps on the integers from 0.

    Returns (positions -m..m, probabilities); odd-parity positions carry
    probability zero.  C(m, k) / 2^m is computed for k <= m // 2 and
    mirrored, since C(m, k) = C(m, m - k).  Past m = 1023, 2^m overflows
    a float and this raises OverflowError.
    """
    if m < 0:
        raise ValueError(f"step count must be nonnegative, got {m}")
    positions = np.arange(-m, m + 1)
    probs = np.zeros(2 * m + 1)
    scale = 2.0**m
    half = []
    c = 1  # binomial(m, k), exact in integers
    for k in range(m // 2 + 1):
        half.append(c / scale)
        c = c * (m - k) // (k + 1)
    probs[::2] = half + half[:m - m // 2][::-1]
    return positions, probs


def line_walk_gaussian(m, positions):
    """Parity-aware Gaussian approximation of the m-step line walk."""
    if m < 1:
        raise ValueError("the Gaussian approximation needs at least one step")
    x = np.asarray(positions, dtype=float)
    parity = 1.0 + (-1.0) ** (m - np.asarray(positions))
    return parity / math.sqrt(2.0 * math.pi * m) * np.exp(-x * x / (2.0 * m))


@dataclass(frozen=True)
class EnergyModel:
    """Finite state space with an energy function and a proposal kernel.

    ``energy`` maps a state index to a real energy; ``propose`` maps
    (state, rng) to a candidate state, drawing from the caller's Generator,
    and must be symmetric for Metropolis sampling to target the Gibbs
    distribution.

    ``EnergyModel.bit_flip(bits, energy)`` declares the bit-flip form: the
    states are the ``bits``-bit strings and a move flips the bit
    ``rng.integers(bits)``.  Its ``propose`` carries the width, so the two
    cannot disagree, and on a PCG64 Generator the samplers run its moves in
    ``_Draws.flip_moves``, one inlined loop that draws exactly what
    ``propose`` and the generic loop would.  The width is at most 63, the
    widest whose start draw ``rng.integers(2 ** bits)`` numpy serves.
    """

    num_states: int
    energy: callable
    propose: callable

    @classmethod
    def bit_flip(cls, bits, energy):
        if type(bits) is not int or bits < 1:
            raise ValueError(f"need a positive integer bit count, got {bits!r}")
        if bits > 63:
            raise ValueError(f"a bit-flip model has at most 63 bits, got {bits}")
        return cls(2 ** bits, energy, _BitFlip(bits))


@dataclass(frozen=True)
class _BitFlip:
    """The proposal of ``EnergyModel.bit_flip``: flip one uniform bit."""

    bits: int

    def __call__(self, state, rng):
        return state ^ (1 << int(rng.integers(self.bits)))


class _Draws:
    """A PCG64 Generator's draws for ``flip_moves``, replayed from its raw
    64-bit words, fetched in blocks of 64, 128, ... up to 4,096.  A move's
    ``integers(bits)`` is Lemire's multiply-and-reject (ACM TOMACS 29(1),
    2019) on a 32-bit half-word: PCG64 hands out a word's low half and keeps
    the high half (``has_uint32``/``uinteger``) for the next 32-bit request;
    bits = 1 draws nothing.  ``random()`` is (w >> 11) 2^-53 of a fresh
    word w.

    ``_decode`` lays each fetched block out with numpy once, for the width
    of the first ``flip_moves`` call (a replay serves one model, so every
    call has that width): ``low[i]`` and ``high[i]`` are ``integers(bits)``
    of word i's low and high half, or -1 where Lemire rejects the half (the
    threshold 2^32 mod bits is below bits, so it alone decides),
    ``uniform[i]`` is its ``random()``, and ``high[n]`` that of ``_half``,
    the half held when the block was fetched.  The cursor ``(i, j, has)``
    is the next word i, and the word j whose high half is buffered, or with
    ``has`` 0 was last (numpy keeps it in ``uinteger``); j = n is
    ``_half``.  ``close`` hands the stream back where the same calls on the
    Generator would have left it.  NEP 19 does not promise these streams
    across numpy versions; the tests hold the replay against the installed
    numpy draw for draw.
    """

    def __init__(self, rng):
        self._bits = rng.bit_generator
        self._saved = self._bits.state
        self._half = self._saved["uinteger"]
        self._cursor = 0, 0, self._saved["has_uint32"]
        self._block, self._fetched, self._decoded = np.empty(0, np.uint64), 0, None

    def close(self):
        (i, j, has), block, bits = self._cursor, self._block, self._bits
        if j < len(block):
            self._half = int(block[j]) >> 32
        bits.state = self._saved
        bits.advance(self._fetched - len(block) + i)
        state = bits.state
        state["has_uint32"], state["uinteger"] = has, self._half
        bits.state = state

    def _decode(self, k, spent=None):
        """``(low, high, uniform, n)``: the block laid out as above for
        the width k, decoded on its first use.  Given ``spent``, the word j
        when the block ran out, it first holds that word's high half and
        fetches the next block."""
        if spent is not None:
            if spent < len(self._block):
                self._half = int(self._block[spent]) >> 32
            size = min(2 * self._fetched or 64, 4096)
            self._fetched += size
            self._block, self._decoded = self._bits.random_raw(size), None
        if self._decoded is None:
            w = self._block
            m = np.concatenate((w & 0xFFFFFFFF, w >> 32,
                                [np.uint64(self._half)])) * np.uint64(k)
            index = np.where(m & 0xFFFFFFFF >= (1 << 32) % k,
                             (m >> 32).astype(np.int64), -1).tolist()
            uniform = ((w >> 11).astype(float) * 2.0 ** -53).tolist()
            self._decoded = index[:len(w)], index[len(w):], uniform, len(w)
        return self._decoded

    def flip_moves(self, bits, energy, beta, steps, samples, state, e_here):
        """``_metropolis`` for ``EnergyModel.bit_flip(bits, energy)``: each
        move is the draw loop of ``integers(bits)``, the flip, and for an
        uphill or NaN ``de`` a ``random()``, with ``energy`` the only call.
        The acceptance weight exp(-beta de) is recomputed only when ``de``
        differs from the last uphill one, as it rarely does for an integer
        energy; a NaN never equals it, so it is recomputed and rejected."""
        low, high, uniform, n = self._decode(bits)
        (i, j, has), exp, wide = self._cursor, math.exp, bits > 1
        b = accepted = 0  # integers(1) draws nothing and returns 0
        last = weight = None  # the last uphill de and its exp(-beta de)
        energies = []
        try:
            for _ in range(samples):
                for _ in range(steps):
                    while wide:
                        if has:
                            has = 0
                            b = high[j]
                        else:
                            if i == n:
                                low, high, uniform, n = self._decode(bits, j)
                                i = 0
                            b, j, has = low[i], i, 1
                            i += 1
                        if b >= 0:
                            break
                    candidate = state ^ (1 << b)
                    e_there = energy(candidate)
                    de = e_there - e_here
                    if not de <= 0.0:
                        if i == n:
                            low, high, uniform, n = self._decode(bits, j)
                            i, j = 0, n
                        i += 1
                        if de != last:
                            last, weight = de, exp(-beta * de)
                        if not uniform[i - 1] < weight:
                            continue
                    state, e_here = candidate, e_there
                    accepted += 1
                energies.append(e_here)
        finally:
            self._cursor = i, j, has
        return state, energies, accepted


def _move_source(model, rng):
    """Where the Metropolis moves of ``model`` draw from: for a bit-flip
    model on a PCG64 ``rng``, its replay, closed on every exit, and ``rng``
    itself otherwise."""
    if (type(model.propose) is _BitFlip
            and type(rng.bit_generator) is np.random.PCG64):
        return contextlib.closing(_Draws(rng))
    return contextlib.nullcontext(rng)


def _metropolis(model, beta, steps, draws, state, e_here, samples=1):
    """Run ``samples`` rounds of ``steps`` Metropolis moves from ``state``
    of energy ``e_here``, drawing from the source ``_move_source`` picked;
    returns the final state, the list of energies after each round and the
    number of accepted moves.

    Proposals with lower or equal energy are always taken; uphill moves are
    accepted with probability exp(-beta dE).  A ``_Draws`` source, which
    only a bit-flip model gets, runs ``_Draws.flip_moves``; this loop, on
    the Generator's own draws, is the reference it is tested against."""
    if steps < 0:
        raise ValueError(f"Metropolis step count must be nonnegative, got {steps}")
    if type(draws) is _Draws:
        return draws.flip_moves(model.propose.bits, model.energy, beta, steps,
                                samples, state, e_here)
    propose, energy, random = model.propose, model.energy, draws.random
    accepted, energies = 0, []
    for _ in range(samples):
        for _ in range(steps):
            candidate = propose(state, draws)
            e_there = energy(candidate)
            de = e_there - e_here
            if de <= 0.0 or random() < math.exp(-beta * de):
                state, e_here = candidate, e_there
                accepted += 1
        energies.append(e_here)
    return state, energies, accepted


def simulated_annealing(model, t0, mu, tmin, inner_steps, rng):
    """Geometric-cooling annealer: run Metropolis at temperature T, cool
    T <- mu T, stop below ``tmin``, return the final state.  ``tmin`` must
    be normal and ``t0`` finite: mu T < T only while T is normal and finite
    (2.5e-323 * 0.9 rounds back to 2.5e-323, and inf * mu is inf)."""
    if not 0.0 < mu < 1.0:
        raise ValueError("cooling factor must lie strictly between 0 and 1")
    if not (tmin >= np.finfo(float).tiny and math.isfinite(t0)):
        raise ValueError(f"annealing needs a finite t0 and a normal tmin, "
                         f"got t0={t0} and tmin={tmin}")
    rng = np.random.default_rng(rng)
    state = int(rng.integers(model.num_states))
    e_here = model.energy(state)
    t = t0
    with _move_source(model, rng) as draws:
        while t >= tmin:
            state, (e_here,), _ = _metropolis(model, 1.0 / t, inner_steps,
                                              draws, state, e_here)
            t *= mu
    return int(state)


TelescopingResult = namedtuple("TelescopingResult", "z_hat level_means alpha_floor")


def telescoping_partition_estimate(model, betas, samples_per_level, rng,
                                   thin_steps=10):
    """Estimate the partition function along an increasing beta schedule.

    Writes Z(beta_final) = |states| * prod_i alpha_i with
    alpha_i = Z(beta_{i+1})/Z(beta_i), and estimates each ratio by averaging
    Y_i = exp(-(beta_{i+1}-beta_i) E(X)) over Gibbs samples X at beta_i,
    drawn by a thinned Metropolis chain warm-started level to level.

    Returns the estimate, the per-level Y means, and the smallest level
    mean; ratios are expected to stay above 1/2 for a gentle schedule, and
    the caller can inspect ``alpha_floor`` to verify it.
    """
    if samples_per_level < 1:
        raise ValueError("need at least one sample per level")
    betas = list(betas)
    if len(betas) < 2:
        raise ValueError("need at least a starting and a final beta")
    if betas[0] != 0.0 or any(b1 > b2 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("schedule must increase from beta = 0")
    rng = np.random.default_rng(rng)
    level_means = []
    state = int(rng.integers(model.num_states))
    e_here = model.energy(state)
    with _move_source(model, rng) as draws:
        for b_here, b_next in zip(betas[:-1], betas[1:]):
            state, energies, _ = _metropolis(model, b_here, thin_steps, draws,
                                             state, e_here, samples_per_level)
            e_here, db, total = energies[-1], b_next - b_here, 0.0
            for e in energies:  # in order: sum() compensates from 3.12 on
                total += math.exp(-db * e)
            level_means.append(total / samples_per_level)
    z_hat = model.num_states * float(np.prod(level_means))
    return TelescopingResult(z_hat, level_means, min(level_means))
