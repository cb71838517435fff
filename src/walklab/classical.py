"""Classical random walks on graphs, their limit theory, and walk-based
classical algorithms: 2-SAT by random flips, memory-assisted graph traversal,
Metropolis sampling, simulated annealing, and the telescoping-product
partition-function estimator.

Markov chains are stored column-stochastically: ``matrix[j, i]`` is the
probability of stepping from vertex i to vertex j, so distributions evolve as
``p_next = matrix @ p``.
"""

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
    "SatFormula",
    "two_sat_walk",
    "traverse_hypercube_memory",
    "traverse_glued_trees_memory",
    "EnergyModel",
    "metropolis_chain",
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


def stationary_and_limit(chain):
    """Stationary distribution d/2|E| plus the symmetrized spectrum.

    The spectrum comes from D^{-1/2} A D^{-1/2}, which is similar to the
    transition matrix and symmetric, so its eigenvalues are real and lie in
    [-1, 1]; they are returned in descending order.  Bipartite graphs never
    converge pointwise (the -1 eigenvalue keeps oscillating) and are flagged.
    """
    g = chain.graph
    deg = _graphs.degrees(g).astype(float)
    pi = deg / deg.sum()
    inv_sqrt = 1.0 / np.sqrt(deg)
    q = _graphs.adjacency(g) * np.outer(inv_sqrt, inv_sqrt)
    values = np.linalg.eigvalsh(q)[::-1]
    return StationaryResult(pi, values, _graphs.is_bipartite(g) and not g.loops)


MixingResult = namedtuple("MixingResult", "steps spectral_bound")


def spectral_lower_bound(lambda2, eps):
    """Spectral-gap lower bound lambda2/(1 - lambda2) * ln(1/(2 eps))."""
    if eps >= 0.5:
        return 0.0
    return lambda2 / (1.0 - lambda2) * math.log(1.0 / (2.0 * eps))


def mixing_time(chain, p0, eps, t_max=100_000):
    """First time after which the evolved distribution stays eps-close to
    the stationary one, checked at every integer step up to ``t_max``.

    Also reports the spectral lower bound from the second eigenvalue.
    Distances use the package's doubled total-variation convention, so
    eps = 2 is trivially satisfied at time 0.
    """
    pi, spectrum, bipartite = stationary_and_limit(chain)
    bound = spectral_lower_bound(float(spectrum[1]), eps)
    p = np.asarray(p0, dtype=float)
    last_bad = -1
    for t in range(t_max + 1):
        if tvd(p, pi) > eps:
            last_bad = t
        p = chain.matrix @ p
    if last_bad == t_max:
        raise ValueError(f"no convergence within t_max={t_max} steps"
                         + (" (bipartite graph)" if bipartite else ""))
    return MixingResult(last_bad + 1, bound)


def first_hit_distribution(chain, start, target, horizon):
    """Probability of arriving at ``target`` for the first time at each step.

    Returns an array f[1..horizon] (index 0 unused) computed by absorbing
    the target column.
    """
    n = chain.matrix.shape[0]
    absorbed = chain.matrix.copy()
    absorbed[:, target] = 0.0
    absorbed[target, target] = 1.0
    p = np.zeros(n)
    p[start] = 1.0
    f = np.zeros(horizon + 1)
    for m in range(1, horizon + 1):
        seen = p[target]
        p = absorbed @ p
        f[m] = p[target] - seen
    return f


HittingResult = namedtuple("HittingResult", "mean_truncated tail_mass restart_estimate")


def hitting_time(chain, start, target, horizon=100_000):
    """Truncated mean first-arrival time plus the not-yet-hit mass.

    The mean sums m * f(m) over the horizon, where f is the first-hit
    distribution; on recurrent-but-null chains (the half-line walk toward
    its endpoint) this grows without bound as the horizon does, which is the
    faithful behavior.  The restart estimate is 1/p for p the cumulative hit
    probability inside the horizon, the expected number of independent
    restarts needed to see one arrival.
    """
    if start == target:
        return HittingResult(0.0, 0.0, 1.0)
    f = first_hit_distribution(chain, start, target, horizon)
    steps = np.arange(horizon + 1)
    cumulative = float(f.sum())
    tail = 1.0 - cumulative
    restart = math.inf if cumulative == 0.0 else 1.0 / cumulative
    return HittingResult(float(steps @ f), tail, restart)


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
    probability zero.
    """
    if m < 0:
        raise ValueError(f"step count must be nonnegative, got {m}")
    positions = np.arange(-m, m + 1)
    probs = np.zeros(2 * m + 1)
    for k in range(m + 1):
        probs[2 * k] = math.comb(m, k) / 2.0**m
    return positions, probs


def line_walk_gaussian(m, positions):
    """Parity-aware Gaussian approximation of the m-step line walk."""
    if m < 1:
        raise ValueError("the Gaussian approximation needs at least one step")
    x = np.asarray(positions, dtype=float)
    parity = 1.0 + (-1.0) ** (m - np.asarray(positions))
    return parity / math.sqrt(2.0 * math.pi * m) * np.exp(-x * x / (2.0 * m))


@dataclass(frozen=True)
class SatFormula:
    """2-SAT formula; literals are signed 1-based variable indices."""

    n: int
    clauses: tuple

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 2:
                raise ValueError("every clause needs exactly two literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range")

    def check(self, assignment):
        """True when the 0/1 ``assignment`` (indexed from 0) satisfies all
        clauses."""
        return self.first_unsatisfied(assignment) is None

    def first_unsatisfied(self, assignment):
        for idx, (a, b) in enumerate(self.clauses):
            if not (_lit_value(a, assignment) or _lit_value(b, assignment)):
                return idx
        return None


def _lit_value(lit, assignment):
    value = assignment[abs(lit) - 1]
    return bool(value) if lit > 0 else not value


def two_sat_walk(formula, rng, max_steps=None):
    """Random-flip 2-SAT solver.

    Starts from all-ones and, while some clause is unsatisfied, flips a
    uniformly random literal of the lowest-index unsatisfied clause, for at
    most 2 n^2 flips.  Returns the satisfying assignment as a tuple of 0/1,
    or None, which for satisfiable formulas is wrong with probability at
    most 1/2 per run.
    """
    rng = np.random.default_rng(rng)
    if max_steps is None:
        max_steps = 2 * formula.n * formula.n
    assignment = [1] * formula.n
    for _ in range(max_steps + 1):
        bad = formula.first_unsatisfied(assignment)
        if bad is None:
            return tuple(assignment)
        lit = formula.clauses[bad][int(rng.integers(2))]
        var = abs(lit) - 1
        assignment[var] ^= 1
    return None


def traverse_hypercube_memory(n, rng):
    """Walk an n-hypercube from 0...0 to 1...1 in exactly n steps.

    Uses only neighbor queries plus O(n) memory: after each move the walker
    records which neighbors of its new position lead back toward the
    entrance (those adjacent to the previous memory set) and excludes them
    from the next choice, so every step climbs one layer.

    Returns the visited path, entrance first, exit last.
    """
    rng = np.random.default_rng(rng)
    g = _graphs.hypercube(n)
    adj = [set(vs) for vs in _graphs.neighbors(g)]
    entrance = 0
    path = [entrance]
    current = int(rng.choice(sorted(adj[entrance])))
    path.append(current)
    memory = {entrance}
    for _ in range(n - 1):
        options = sorted(adj[current] - memory)
        nxt = int(rng.choice(options))
        memory = {v for v in adj[nxt] if adj[v] & memory}
        current = nxt
        path.append(current)
    return path


def traverse_glued_trees_memory(g, rng, max_steps=None):
    """Find the exit root of a glued-trees graph with a memory-assisted walk.

    The walker knows the entrance (vertex 0) and recognizes the exit by
    name on arrival; otherwise it only queries neighbor lists.  It first
    descends non-backtracking to the central layer, which it recognizes by
    its degree 2; afterwards, whenever it stumbles back onto a degree-2
    central vertex after 2k further steps it rewinds its recorded trail to
    the k-th position, since the wrong turn happened halfway.  Expected cost
    is O(depth^2) random moves.

    Returns (exit vertex, number of random moves taken).
    """
    rng = np.random.default_rng(rng)
    adj = [tuple(vs) for vs in _graphs.neighbors(g)]
    entrance, exit_vertex = 0, g.n - 1
    if max_steps is None:
        max_steps = 400 * g.n
    steps = 0
    # phase 1: non-backtracking descent to the first degree-2 vertex
    trail = [entrance]
    current = entrance
    previous = None
    while len(adj[current]) != 2 or current == entrance:
        if steps > max_steps:
            raise ValueError(f"no central layer within max_steps={max_steps}")
        options = [v for v in adj[current] if v != previous]
        previous, current = current, int(rng.choice(options))
        trail.append(current)
        steps += 1
    # phase 2: climb toward the exit, rewinding half-way on every return
    # to the central layer
    trail = [current]
    while current != exit_vertex:
        if steps > max_steps:
            raise ValueError(f"exit not reached within max_steps={max_steps}")
        back = trail[-2] if len(trail) >= 2 else previous
        options = [v for v in adj[current] if v != back]
        current = int(rng.choice(options))
        trail.append(current)
        steps += 1
        if len(adj[current]) == 2 and current != exit_vertex:
            # back on the central layer after 2k moves; the wrong turn was
            # at move k, so rewind the trail to that point
            k = (len(trail) - 1) // 2
            trail = trail[: k + 1]
            current = trail[-1]
    return current, steps


@dataclass(frozen=True)
class EnergyModel:
    """Finite state space with an energy function and a proposal kernel.

    ``energy`` maps a state index to a real energy; ``propose`` maps
    (state, rng) to a candidate state and must be symmetric for Metropolis
    sampling to target the Gibbs distribution.
    """

    num_states: int
    energy: callable
    propose: callable


def metropolis_chain(model, beta, steps, rng, start=None):
    """Sample the Gibbs distribution at inverse temperature ``beta``.

    Proposals with lower or equal energy are always taken; uphill moves are
    accepted with probability exp(-beta dE).  Returns the visited states
    (including the start) and the number of accepted moves.
    """
    if beta < 0:
        raise ValueError("inverse temperature must be nonnegative")
    if steps < 0:
        raise ValueError(f"Metropolis step count must be nonnegative, got {steps}")
    rng = np.random.default_rng(rng)
    state = int(rng.integers(model.num_states)) if start is None else start
    samples = np.empty(steps + 1, dtype=np.int64)
    samples[0] = state
    accepted = 0
    e_here = model.energy(state)
    for i in range(1, steps + 1):
        candidate = model.propose(state, rng)
        e_there = model.energy(candidate)
        de = e_there - e_here
        if de <= 0.0 or rng.random() < math.exp(-beta * de):
            state, e_here = candidate, e_there
            accepted += 1
        samples[i] = state
    return samples, accepted


def simulated_annealing(model, t0, mu, tmin, inner_steps, rng):
    """Geometric-cooling annealer: run Metropolis at temperature T, cool
    T <- mu T, stop below ``tmin``, return the final state."""
    if not 0.0 < mu < 1.0:
        raise ValueError("cooling factor must lie strictly between 0 and 1")
    if tmin <= 0.0:
        raise ValueError("final temperature must be positive")
    rng = np.random.default_rng(rng)
    state = int(rng.integers(model.num_states))
    t = t0
    while t >= tmin:
        samples, _ = metropolis_chain(model, 1.0 / t, inner_steps, rng, start=state)
        state = int(samples[-1])
        t *= mu
    return state


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
    state = int(rng.integers(model.num_states))
    level_means = []
    for b_here, b_next in zip(betas[:-1], betas[1:]):
        db = b_next - b_here
        total = 0.0
        for _ in range(samples_per_level):
            samples, _ = metropolis_chain(model, b_here, thin_steps, rng,
                                          start=state)
            state = int(samples[-1])
            total += math.exp(-db * model.energy(state))
        level_means.append(total / samples_per_level)
    z_hat = model.num_states * float(np.prod(level_means))
    return TelescopingResult(z_hat, level_means, min(level_means))
