"""Discrete-time coined quantum walks.

A walk operator couples a position register (vertices of a regular graph)
with a coin register (one direction per edge color).  One step throws the
coin at every vertex, then shifts along the colored edges.  States are
complex arrays of shape (vertices, coin dimension).

Besides plain evolution the module covers the limit theory of these walks
(limiting distribution, mixing and hitting times), the stationary-phase
asymptotics of the Hadamard walk on the line, the absorbing boundary at
the origin, and decoherent evolution of density matrices.
"""

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from walklab import graphs as _graphs
from walklab import trace
from walklab.distributions import tvd
from walklab.linalg import (
    dephased_probabilities,
    group_indices_by_phase,
    hermiticity_defect,
    unitarity_defect,
    unitary_eigensystem,
)

__all__ = [
    "Coin",
    "coin",
    "CoinedWalkOperator",
    "line_operator",
    "line_positions",
    "line_start",
    "walk_run",
    "position_distribution",
    "DensityState",
    "Asymptotics",
    "hadamard_asymptotics",
    "slow_envelope",
    "quantum_limit_dist",
    "QuantumMixing",
    "quantum_mixing_time",
    "HittingAnalysis",
    "hitting_analysis",
    "AbsorbingLine",
    "absorbing_line_quantum",
    "decohere_evolve",
]

COIN_TOL = 1e-10


@dataclass(frozen=True)
class Coin:
    """Unitary acting on the direction register at one vertex."""

    d: int
    matrix: np.ndarray = field(compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.d, self.d):
            raise ValueError("coin matrix does not match its dimension")
        defect = unitarity_defect(m)
        if defect > COIN_TOL:
            raise ValueError(f"coin is not unitary (defect {defect:.2e})")
        object.__setattr__(self, "matrix", m)


def coin(kind, d=2, phase=None):
    """Build one of the named coins.

    Kinds: ``hadamard`` and ``balanced`` (two-dimensional),
    ``walsh_hadamard`` (d a power of two), ``dft``, ``grover`` (reflection
    about the average, transmission 2/d), ``flip_flop`` (even d; the
    Grover coin composed with the swap that repulses the walker from the
    edge it came along), and ``reflective`` (transmission zero, reflection
    with a tunable phase).
    """
    if phase is not None and kind != "reflective":
        raise ValueError("phase only applies to the reflective coin")
    if kind == "hadamard":
        _need(kind, d == 2)
        m = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    elif kind == "balanced":
        _need(kind, d == 2)
        m = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    elif kind == "walsh_hadamard":
        _need(kind, d >= 2 and d & (d - 1) == 0)
        k, v = np.meshgrid(np.arange(d), np.arange(d))
        bits = np.zeros((d, d), dtype=int)
        x = k & v
        while np.any(x):
            bits += x & 1
            x >>= 1
        m = (-1.0) ** bits / math.sqrt(d)
    elif kind == "dft":
        _need(kind, d >= 1)
        mu, nu = np.meshgrid(np.arange(d), np.arange(d))
        m = np.exp(2j * math.pi * mu * nu / d) / math.sqrt(d)
    elif kind == "grover":
        _need(kind, d >= 1)
        m = np.full((d, d), 2.0 / d) - np.eye(d)
    elif kind == "flip_flop":
        _need(kind, d >= 2 and d % 2 == 0)
        swap = np.kron(np.eye(d // 2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        m = swap @ (np.full((d, d), 2.0 / d) - np.eye(d))
    elif kind == "reflective":
        m = cmath.exp(1j * (phase or 0.0)) * np.eye(d)
    else:
        raise ValueError(f"unknown coin kind {kind!r}")
    return Coin(d, m)


def _need(kind, ok):
    if not ok:
        raise ValueError(f"dimension incompatible with the {kind} coin")


class CoinedWalkOperator:
    """Shift-after-coin step operator on a colored regular graph.

    The directions are the graph's canonical ``graphs.color_edges``, which
    checks that every color is a permutation on the edge set.  The coin
    may be a single ``Coin`` shared by every vertex or a sequence with one
    ``Coin`` per vertex.  ``step`` is the one structural
    application of the walk unitary (coin blocks, then the color
    permutations as a single gather) and acts on states of shape
    (..., n, d), so a batch of states or the rows of a density matrix step
    together.  ``dense`` materializes the matrix for spectral work; it is
    built independently of ``step`` and serves as its check.
    """

    def __init__(self, graph, coins):
        self.graph = graph
        self.coloring = _graphs.color_edges(graph)
        self.n = graph.n
        self.d = self.coloring.d
        nxt = self.coloring.next_vertex
        # flat basis v*d + c: entry nxt[v, c]*d + c of the shifted state is
        # entry v*d + c of the coined one
        nd = self.n * self.d
        self._source = np.empty(nd, dtype=np.intp)
        self._source[(nxt * self.d + np.arange(self.d)).ravel()] = np.arange(nd)
        if isinstance(coins, Coin):
            if coins.d != self.d:
                raise ValueError("coin dimension does not match the coloring")
            self._coin = coins.matrix
            self._coins = None
        else:
            coins = list(coins)
            if len(coins) != self.n or any(c.d != self.d for c in coins):
                raise ValueError("need one coin of matching dimension per vertex")
            self._coin = None
            self._coins = np.stack([c.matrix for c in coins])

    def step(self, state):
        """One application of the walk unitary to a state of shape
        (..., n, d); leading axes are a batch that steps independently."""
        if self._coin is not None:
            mixed = state.reshape(-1, self.d) @ self._coin.T
        else:
            mixed = np.einsum("vcd,...vd->...vc", self._coins, state)
        flat = mixed.reshape(-1, self._source.size)
        return flat[:, self._source].reshape(state.shape)

    def dense(self):
        """The step operator as an (n d) x (n d) matrix, basis v*d + c."""
        u = np.zeros((self.n * self.d, self.n * self.d), dtype=complex)
        nxt = self.coloring.next_vertex
        for v in range(self.n):
            cm = self._coin if self._coin is not None else self._coins[v]
            for c in range(self.d):
                u[nxt[v, c] * self.d + c, v * self.d : (v + 1) * self.d] = cm[c]
        return u

    def check_state(self, state):
        state = np.asarray(state, dtype=complex)
        if state.shape != (self.n, self.d):
            raise ValueError(f"state shape {state.shape} does not match "
                             f"({self.n}, {self.d})")
        return state


def line_operator(m, kind="hadamard"):
    """Hadamard-type walk for m steps on the line, realized on a cycle
    large enough that the walker never feels the wrap."""
    g = _graphs.cycle(2 * m + 5)
    return CoinedWalkOperator(g, coin(kind))


def line_positions(op):
    """Signed position labels with the start site at zero."""
    return np.arange(op.n) - op.n // 2


def line_start(op, q=1.0, sigma=0.0):
    """Walker at the origin with coin sqrt(q)|up> + sqrt(1-q) e^{i sigma}|down>."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("coin weight q must lie in [0, 1]")
    state = np.zeros((op.n, 2), dtype=complex)
    state[op.n // 2, 0] = math.sqrt(q)
    state[op.n // 2, 1] = math.sqrt(1.0 - q) * cmath.exp(1j * sigma)
    return state


def walk_run(op, psi0, m):
    """m steps of the walk; the norm is preserved to 1e-9 and checked."""
    if m < 0:
        raise ValueError("step count must be nonnegative")
    psi = op.check_state(psi0)
    norm0 = np.linalg.norm(psi)
    for _ in range(m):
        psi = op.step(psi)
    trace.check("norm drift", abs(np.linalg.norm(psi) - norm0), 1e-9)
    return psi


def position_distribution(state):
    """Trace out the coin register.

    Accepts a pure state of shape (n, d) or a DensityState.
    """
    if isinstance(state, DensityState):
        n, d = state.shape
        diag = np.real(np.diag(state.matrix))
        return diag.reshape(n, d).sum(axis=1)
    state = np.asarray(state)
    if state.ndim != 2:
        raise ValueError("expected a position x coin array")
    return (np.abs(state) ** 2).sum(axis=1)


@dataclass(frozen=True)
class DensityState:
    """Density matrix over the position x coin basis."""

    shape: tuple
    matrix: np.ndarray = field(compare=False)

    def __post_init__(self):
        n, d = self.shape
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (n * d, n * d):
            raise ValueError("matrix does not match the basis shape")
        if abs(np.trace(m).real - 1.0) > 1e-9 or abs(np.trace(m).imag) > 1e-9:
            raise ValueError("density matrix must have unit trace")
        if hermiticity_defect(m) > 1e-9:
            raise ValueError("density matrix must be Hermitian")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_pure(cls, state):
        v = np.asarray(state, dtype=complex).ravel()
        return cls(np.asarray(state).shape, np.outer(v, v.conj()))

    def check_positive(self, tol=1e-10):
        smallest = float(np.linalg.eigvalsh(self.matrix)[0])
        trace.check("positivity", -smallest, tol)
        return smallest


Asymptotics = namedtuple("Asymptotics", "alpha beta gamma probability")


def slow_envelope(x, m):
    """Smooth envelope the exact Hadamard-walk distribution oscillates
    around, valid strictly inside the ballistic cone |x| < m/sqrt(2)."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= m / math.sqrt(2)):
        raise ValueError("position outside the ballistic cone")
    return 2.0 * m / (math.pi * (m - x) * np.sqrt(m * m - 2.0 * x * x))


def hadamard_asymptotics(x, m, q=1.0, sigma=0.0):
    """Stationary-phase asymptotics of the line walk at position x after m
    steps, for the initial coin (sqrt(q), sqrt(1-q) e^{i sigma}).

    Returns the three oscillatory integrals the exact distribution is
    built from and the resulting probability value (smooth in x; the true
    walk additionally vanishes on sites of the wrong parity).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("coin weight q must lie in [0, 1]")
    lam = abs(x) / m
    if lam >= 1.0 / math.sqrt(2.0):
        raise ValueError("position outside the ballistic cone; the "
                         "probability there is exponentially small")
    k0 = math.acos(lam / math.sqrt(1.0 - lam * lam))
    omega = math.asin(math.sin(k0) / math.sqrt(2.0))
    theta = m * (k0 * lam - omega) + math.pi / 4.0
    curvature = (1.0 - lam * lam) * math.sqrt(1.0 - 2.0 * lam * lam)
    pref = 2.0 / math.sqrt(2.0 * math.pi * m * curvature)
    alpha = pref * math.cos(theta)
    beta = lam * pref * math.cos(theta)
    gamma = -math.sqrt(1.0 - 2.0 * lam * lam) * pref * math.sin(theta)
    sign = 1.0 if x >= 0 else -1.0
    prob = (alpha * alpha + 2.0 * beta * beta + gamma * gamma
            + sign * (4.0 * q - 2.0) * beta * (alpha + sign * gamma)
            + sign * 4.0 * math.sqrt(q * (1.0 - q)) * math.cos(sigma)
            * beta * (alpha - sign * gamma))
    if x < 0:
        alpha, beta, gamma = alpha, -beta, gamma
    return Asymptotics(alpha, beta, gamma, prob)


def quantum_limit_dist(op, psi0):
    """Limiting position distribution of the time-averaged walk.

    Decomposes the start state over the eigenbasis of the step unitary,
    groups eigenvalues whose phases agree within 1e-8, and keeps only the
    interference inside each degenerate group.
    """
    psi = op.check_state(psi0)
    return _limit_positions(op, *unitary_eigensystem(op.dense()), psi)


def _limit_positions(op, values, vectors, psi):
    groups = group_indices_by_phase(values)
    probs = dephased_probabilities(vectors, groups, psi.ravel())
    return probs.reshape(op.n, op.d).sum(axis=1)


QuantumMixing = namedtuple("QuantumMixing", "steps bound distances")


def quantum_mixing_time(op, psi0, eps, t_max):
    """Smallest T after which the time-averaged distribution stays
    eps-close to the limiting one, for every horizon up to t_max.

    Also reports the spectral upper bound on that distance, evaluated at
    the returned T: twice the sum of |a_i|^2 / |lambda_i - lambda_j| over
    eigenvalue pairs with distinct phases, divided by T; and the distance
    itself at every horizon 1..t_max.  A t_max too short is a ValueError.
    """
    if t_max < 1:
        raise ValueError(f"horizon t_max must be at least 1, got {t_max}")
    psi = op.check_state(psi0)
    values, vectors = unitary_eigensystem(op.dense())
    pi = _limit_positions(op, values, vectors, psi)
    amp2 = np.abs(vectors.conj().T @ psi.ravel()) ** 2
    gaps = np.abs(values[:, None] - values[None, :])
    distinct = gaps > 1e-8
    pair_sum = float((amp2[:, None] / np.where(distinct, gaps, 1.0))[distinct].sum())
    acc = np.zeros(op.n)
    distances = np.empty(t_max)
    last_bad = 0
    for t in range(1, t_max + 1):
        acc += position_distribution(psi)
        distances[t - 1] = tvd(acc / t, pi)
        if distances[t - 1] > eps:
            last_bad = t
        psi = op.step(psi)
    if last_bad == t_max:
        raise ValueError(f"time average not within {eps} by horizon {t_max}")
    steps = last_bad + 1 if last_bad else 0
    return QuantumMixing(steps, 2.0 * pair_sum / max(steps, 1), distances)


HittingAnalysis = namedtuple("HittingAnalysis", "one_shot first_hit concurrent")


def hitting_analysis(op, psi0, target, m_max, p=0.5):
    """One-shot and monitored arrival statistics at a target vertex.

    one_shot[t] is the probability of finding the walker at the target
    after t undisturbed steps.  first_hit[t] comes from the monitored
    process that projects out the target after every step, so its running
    sum never exceeds one.  The concurrent hitting time, the smallest T
    whose accumulated one-shot probability reaches p, must be <= m_max.
    """
    psi = op.check_state(psi0)
    if not 0 <= target < op.n:
        raise ValueError("target is not a vertex")
    if m_max < 0:
        raise ValueError("step count must be nonnegative")
    # the free walker and the monitored one step together as a batch of two
    one_shot = np.empty(m_max + 1)
    first_hit = np.empty(m_max + 1)
    pair = np.stack([psi, psi])
    for t in range(m_max + 1):
        if t:
            pair = op.step(pair)
        one_shot[t], first_hit[t] = (np.abs(pair[:, target]) ** 2).sum(axis=1)
        pair[1, target] = 0.0
    reached = np.flatnonzero(np.cumsum(one_shot) >= p)
    if reached.size == 0:
        raise ValueError(f"accumulated probability never reaches {p} "
                         f"within the horizon of {m_max} steps")
    return HittingAnalysis(one_shot, first_hit, int(reached[0]))


AbsorbingLine = namedtuple("AbsorbingLine", "per_step cumulative amplitudes")


def absorbing_line_quantum(m_max):
    """Hadamard walker released one site right of an absorbing wall.

    Each step the amplitude arriving at the origin is recorded and
    removed.  The walker lives on sites 0..m_max+2, so nothing ever
    reaches the far end and no amplitude can tunnel through the wall;
    absorbed amplitude only ever arrives moving leftward.

    Returns per-step absorbed probabilities (index = step), their running
    sum, and the absorbed amplitudes themselves.
    """
    if m_max < 1:
        raise ValueError("need at least one step")
    size = m_max + 3
    psi = np.zeros((size, 2), dtype=complex)
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
        trace.check("amplitude at the buffer edge", abs(up[-1]), 1e-12)
        amplitudes[step] = nxt[0, 1]
        per_step[step] = abs(nxt[0, 1]) ** 2 + abs(nxt[0, 0]) ** 2
        nxt[0] = 0.0
        psi = nxt
    return AbsorbingLine(per_step, np.cumsum(per_step), amplitudes)


_PROJECTOR_SETS = ("coin", "position", "both", "edge-phase")


def decohere_evolve(op, p, projectors, rho0, m):
    """m steps of the walk interrupted by measurement with rate 1-p.

    Each step applies the unitary and then, with probability 1-p, the
    projective measurement named by ``projectors``: onto coin states,
    position states, or both registers ("edge-phase" dephases every
    position-and-coin basis state and acts identically to "both").
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("unitarity rate must lie in [0, 1]")
    if projectors not in _PROJECTOR_SETS:
        raise ValueError(f"unknown projector set {projectors!r}")
    if rho0.shape != (op.n, op.d):
        raise ValueError("density state does not match the operator")
    n, d = op.n, op.d
    v = np.arange(n * d) // d
    c = np.arange(n * d) % d
    keep = np.ones((n * d, n * d))
    if projectors in ("position", "both", "edge-phase"):
        keep *= v[:, None] == v[None, :]
    if projectors in ("coin", "both", "edge-phase"):
        keep *= c[:, None] == c[None, :]
    factor = (p + (1.0 - p) * keep).reshape(n, d, n, d)
    # conjugation by the step operator: U acts on the column index of
    # conj(rho) to give rho U^dagger, then on the row index
    rho = rho0.matrix.reshape(n, d, n, d)
    for _ in range(m):
        rho = op.step(rho.conj()).conj()
        rho = op.step(rho.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1) * factor
    flat = rho.reshape(n * d, n * d)
    flat = 0.5 * (flat + flat.conj().T)
    result = DensityState((n, d), flat)
    result.check_positive(1e-9)
    return result
