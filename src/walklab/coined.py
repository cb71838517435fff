"""Discrete-time coined quantum walks.

A walk operator couples a position register (vertices of a regular graph)
with a coin register (one direction per edge color).  One step throws the
coin at every vertex, then shifts along the colored edges.  States are
arrays of shape (vertices, coin dimension) that keep the dtype of coin and
start: a real coin on a real start state walks in real arithmetic.  A
density matrix under decoherence steps only on the sites its start can
reach, since a walker moves at most one site per step.

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
    "walk_states",
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

# the smallest normal double: an entry below it is a subnormal or zero
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class Coin:
    """Unitary acting on the direction register at one vertex."""

    d: int
    matrix: np.ndarray = field(compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        m = m.astype(np.result_type(m, 1.0), copy=False)
        if m.shape != (self.d, self.d):
            raise ValueError("coin matrix does not match its dimension")
        defect = unitarity_defect(m)
        if defect > COIN_TOL:
            raise ValueError(f"coin is not unitary (defect {defect:.2e})")
        object.__setattr__(self, "matrix", m)


def coin(kind, d=2):
    """Build one of the named coins: ``hadamard`` (two-dimensional),
    ``grover`` (reflection about the average, transmission 2/d) or ``dft``.
    """
    if kind == "hadamard":
        _need(kind, d == 2)
        m = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    elif kind == "dft":
        _need(kind, d >= 1)
        mu, nu = np.meshgrid(np.arange(d), np.arange(d))
        m = np.exp(2j * math.pi * mu * nu / d) / math.sqrt(d)
    elif kind == "grover":
        _need(kind, d >= 1)
        m = np.full((d, d), 2.0 / d) - np.eye(d)
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
    ``Coin`` per vertex.  The walk unitary is applied structurally:
    ``step`` runs the coin on every row of a state of shape (..., n, d),
    leading axes being a batch that steps together, then the shift, one
    gather through the color permutations on every graph.
    ``decohere_evolve`` runs the coin on both sides of a density matrix:
    on a cycle with one coin, over the parity sublattice its start occupies
    while that light cone fits the cycle, each color shifting by one row or
    none; otherwise through ``step`` on the whole matrix.
    ``dense`` materializes the matrix for spectral work; it
    is built independently of the kernel and serves as its check.
    ``dtype`` is the coins' dtype: a real coin keeps real states real.
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
        # on a cycle, the color that moves every vertex v to v + 1
        self._right = (int(nxt[0, 1] == 1) if graph.family == "cycle"
                       else None)
        if isinstance(coins, Coin):
            if coins.d != self.d:
                raise ValueError("coin dimension does not match the coloring")
            # stored transposed and contiguous: a product with a transposed
            # view runs up to three times slower
            self._coin_t = np.ascontiguousarray(coins.matrix.T)
            self._coins = None
        else:
            coins = list(coins)
            if len(coins) != self.n or any(c.d != self.d for c in coins):
                raise ValueError("need one coin of matching dimension per vertex")
            self._coin_t = None
            self._coins = np.stack([c.matrix for c in coins])
        self.dtype = (self._coins if self._coins is not None
                      else self._coin_t).dtype

    def step(self, state):
        """One application of the walk unitary to a state of shape
        (..., n, d); leading axes are a batch that steps independently."""
        mixed = self._coin(state)
        flat = mixed.reshape(-1, self.n * self.d)
        return flat.take(self._source, axis=-1).reshape(mixed.shape)

    def _coin(self, part):
        """The coin on the rows of ``part``, of shape (..., k, d): the shared
        coin on any k rows, or one coin per vertex on all k = n of them."""
        if self._coin_t is not None:
            return (part.reshape(-1, self.d) @ self._coin_t).reshape(part.shape)
        return np.einsum("vcd,...vd->...vc", self._coins, part)

    def dense(self):
        """The step operator as an (n d) x (n d) matrix, basis v*d + c."""
        u = np.zeros((self.n * self.d, self.n * self.d), dtype=complex)
        nxt = self.coloring.next_vertex
        for v in range(self.n):
            cm = self._coin_t.T if self._coin_t is not None else self._coins[v]
            for c in range(self.d):
                u[nxt[v, c] * self.d + c, v * self.d : (v + 1) * self.d] = cm[c]
        return u

    def check_state(self, state):
        state = np.asarray(state)
        state = state.astype(np.result_type(self.dtype, state), copy=False)
        if state.shape != (self.n, self.d):
            raise ValueError(f"state shape {state.shape} does not match "
                             f"({self.n}, {self.d})")
        return state


def line_operator(m):
    """Hadamard walk for m steps on the line, realized on a cycle large
    enough that the walker never feels the wrap."""
    return CoinedWalkOperator(_graphs.cycle(2 * m + 5), coin("hadamard"))


def line_positions(op):
    """Signed position labels with the start site at zero."""
    return np.arange(op.n) - op.n // 2


def line_start(op, q=1.0, sigma=0.0):
    """Walker at the origin with coin sqrt(q)|up> + sqrt(1-q) e^{i sigma}|down>.

    The state is real when the down amplitude is, as at q = 1 or sigma = 0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("coin weight q must lie in [0, 1]")
    down = math.sqrt(1.0 - q) * cmath.exp(1j * sigma)
    if not down.imag:
        down = down.real
    state = np.zeros((op.n, 2), dtype=type(down))
    state[op.n // 2] = math.sqrt(q), down
    return state


def walk_states(op, psi0, m):
    """The states after 0, 1, ..., m steps of the walk, one at a time."""
    if m < 0:
        raise ValueError("step count must be nonnegative")
    psi = op.check_state(psi0)
    yield psi
    for _ in range(m):
        psi = op.step(psi)
        yield psi


def walk_run(op, psi0, m):
    """m steps of the walk; the norm is preserved to 1e-9 and checked."""
    states = walk_states(op, psi0, m)
    psi = next(states)
    norm0 = np.linalg.norm(psi)
    for psi in states:
        pass
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
    """Density matrix over the position x coin basis, held read-only."""

    shape: tuple
    matrix: np.ndarray = field(compare=False)

    def __post_init__(self):
        n, d = self.shape
        m = np.array(self.matrix, dtype=complex)
        m.flags.writeable = False
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

    @classmethod
    def _unchecked(cls, shape, matrix):
        """A state made by a channel from a checked one, Hermitian by
        construction, whose trace and positivity the caller checks."""
        state = object.__new__(cls)
        matrix.flags.writeable = False
        state.__dict__.update(shape=shape, matrix=matrix)
        return state

    def check_positive(self, tol=1e-10):
        """Smallest eigenvalue, checked to be at least -tol.

        Only the principal block over the rows and columns that hold a
        nonzero entry is diagonalized, in real arithmetic when it is real.
        Every entry outside it is zero, so the rest of the spectrum is
        zeros and the smallest eigenvalue is min(block minimum, 0).  A NaN
        or infinite entry fails the check.
        """
        m = self.matrix
        rows = np.flatnonzero(m.any(axis=0) | m.any(axis=1))
        block = m[np.ix_(rows, rows)]
        if not block.imag.any():
            block = block.real
        if not np.isfinite(block).all():
            smallest = math.nan
        else:
            smallest = float(np.linalg.eigvalsh(block)[0]) if rows.size else 0.0
            if rows.size < len(m):
                smallest = min(smallest, 0.0)
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
    walk additionally vanishes on sites of the wrong parity).  Left of the
    origin they come from the mirror image, P(-x; q, sigma) =
    P(x; 1 - q, pi - sigma), with beta's sign turned.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("coin weight q must lie in [0, 1]")
    if x < 0:
        a = hadamard_asymptotics(-x, m, 1.0 - q, math.pi - sigma)
        return a._replace(beta=-a.beta)
    lam = x / m
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
    prob = (alpha * alpha + 2.0 * beta * beta + gamma * gamma
            + (4.0 * q - 2.0) * beta * (alpha + gamma)
            + 4.0 * math.sqrt(q * (1.0 - q)) * math.cos(sigma)
            * beta * (alpha - gamma))
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
    itself at every horizon 1..t_max.  A t_max too short is a ValueError,
    and so is a NaN start: a NaN distance is not eps-close.
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
    for t, state in enumerate(walk_states(op, psi, t_max - 1), start=1):
        acc += position_distribution(state)
        distances[t - 1] = tvd(acc / t, pi)
        if not distances[t - 1] <= eps:
            last_bad = t
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

    A walk on a bipartite graph from a start on one side, as from a corner
    of the d-cube, is on that side after even steps and on the other after
    odd ones, so only that side is stored and stepped: ``_coin`` on its
    rows, then one gather into the other side.  After the steps that end
    on the side without the target both series are 0.0, as they are on
    the whole state.  With one coin per vertex, on a graph that is not
    bipartite, or from a start on both sides, each side is every vertex.
    """
    psi = op.check_state(psi0)
    if not 0 <= target < op.n:
        raise ValueError("target is not a vertex")
    if m_max < 0:
        raise ValueError("step count must be nonnegative")
    n, d = op.n, op.d
    label = _graphs.bipartition(op.graph)
    # the sides the start is on, both when the graph is not bipartite
    start = {0, 1} if label is None else set(label[psi.any(axis=1)].tolist())
    if op._coins is not None or len(start) > 1:
        sides = (np.arange(n),) * 2
    else:
        here = label == min(start, default=0)
        sides = (np.flatnonzero(here), np.flatnonzero(~here))
    # a step from side s gathers through sources[s]: the whole-state
    # gather on the rows of side 1 - s, renumbered by row within side s
    pos = np.empty(n, dtype=np.intp)
    for side in sides:
        pos[side] = np.arange(len(side))
    sources = []
    for side in sides[::-1]:
        v, c = np.divmod(op._source.reshape(n, d)[side], d)
        sources.append((pos[v] * d + c).ravel())
    rows = [pos[target] if target in side else None for side in sides]
    # the free walker and the monitored one step together as a batch of two
    one_shot = np.empty(m_max + 1)
    first_hit = np.empty(m_max + 1)
    pair = np.stack([psi[sides[0]]] * 2)
    for t in range(m_max + 1):
        if t:
            mixed = op._coin(pair).reshape(2, -1)
            pair = mixed.take(sources[1 - t % 2], axis=-1).reshape(
                2, len(sides[t % 2]), d)
        row = rows[t % 2]
        if row is None:
            one_shot[t] = first_hit[t] = 0.0
            continue
        # summed coin by coin down the outer axis of a C-ordered copy, so
        # the bits hang on neither the memory order nor pairwise summation
        one_shot[t], first_hit[t] = np.add.reduce(
            np.abs(pair[:, row].T.copy()) ** 2, axis=0)
        pair[1, row] = 0.0
    reached = np.flatnonzero(np.cumsum(one_shot) >= p)
    if reached.size == 0:
        raise ValueError(f"accumulated probability never reaches {p} "
                         f"within the horizon of {m_max} steps")
    return HittingAnalysis(one_shot, first_hit, int(reached[0]))


def _underflowed(row):
    # every entry below the smallest normal double; NaN and inf are below
    # nothing, so a row holding one is never dropped.  A plain loop on
    # Python floats: it runs once a step, and a normal row stops at its
    # first entry
    for x in row.tolist():
        if not abs(x) < _TINY:
            return False
    return True


AbsorbingLine = namedtuple("AbsorbingLine", "per_step cumulative amplitudes")


def absorbing_line_quantum(m_max):
    """Hadamard walker released one site right of an absorbing wall.

    Each step the amplitude arriving at the origin is recorded and
    removed.  A walker moves one site per step, so after t steps it sits
    only on the sites of parity par = (1 + t) mod 2, and only those are
    stored: row j of an (m_max // 2 + 3) x 2 array holds site 2j + par,
    and the rows [0, k) are the ones that can be nonzero.  A step is the
    Hadamard coin on those k rows, into the first k rows of one buffer
    reused every step, then a shift of one color by one row while the
    other stays put.  From par = 1 the rightward color moves one row down
    and row 0 becomes the wall, site 0, which is read and emptied; from
    par = 0 the leftward color moves one row up, and the wall's own row,
    empty, leaves the array.  So the wall is read after odd steps only;
    after even steps nothing can have reached it.  After each step the far
    edge of the rows zeroes two kinds of row:

    - rows outside the wall's backward light cone.  A walker at site x
      after step t first reaches the wall at step t + x, so no site beyond
      x = m_max - t changes a recorded amplitude.  Their probability is
      counted as remaining; by the last step every row has left the cone.
    - rows whose entries all lie below ``np.finfo(float).tiny``.  The front
      decays as 2^(-t/2), passes below it after step 2,044, and would
      otherwise stick at the subnormal 5e-324 (true value near 1e-1200) at
      the cost of subnormal arithmetic.  This is safe: the step is unitary,
      so the state moves by about the norm dropped (at most 7.3e-304 over
      8,000 steps), which squares to 0, and a NaN or inf row is never
      dropped.

    The wall side, row 0, is never trimmed.  The absorbed and the
    remaining probability sum to one, to 1e-9.

    Returns per-step absorbed probabilities (index = step), their running
    sum, and the absorbed amplitudes themselves.
    """
    if m_max < 1:
        raise ValueError("need at least one step")
    hadamard = coin("hadamard").matrix
    psi = np.zeros((m_max // 2 + 3, 2))
    psi[0, 0] = 1.0
    # the coin writes its first k rows, and each color's column of it and
    # of psi is bound once: column 0 moves right, as in graphs.color_edges
    mixed = np.empty_like(psi)
    psi_right, psi_left = psi.T
    mixed_right, mixed_left = mixed.T
    per_step = np.zeros(m_max + 1)
    amplitudes = np.zeros(m_max + 1, dtype=complex)
    remaining = 0.0
    par, k = 1, 1
    for step in range(1, m_max + 1):
        np.matmul(psi[:k], hadamard, out=mixed[:k])
        if par:
            psi_right[1:k + 1] = mixed_right[:k]
            psi_left[:k] = mixed_left[:k]
            # the rightward color has left the wall row: what arrived there
            # came moving left, and the stale entry beside it is emptied
            amplitudes[step] = psi_left[0]
            per_step[step] = abs(psi_left[0]) ** 2
            psi[0] = 0.0
            k += 1
        else:
            psi_left[:k - 1] = mixed_left[1:k]
            psi_left[k - 1] = 0.0
            psi_right[:k] = mixed_right[:k]
        par = 1 - par
        cone = (m_max - step - par) // 2 + 1
        if k > cone:
            gone = psi[cone:k]
            remaining += float(np.vdot(gone, gone))
            gone[...] = 0.0
            k = cone
        while k > 1 and _underflowed(psi[k - 1]):
            psi[k - 1] = 0.0
            k -= 1
    cumulative = np.cumsum(per_step)
    trace.check("absorbed plus remaining probability",
                abs(cumulative[-1] + remaining + np.vdot(psi, psi) - 1.0),
                1e-9)
    return AbsorbingLine(per_step, cumulative, amplitudes)


_PROJECTOR_SETS = ("coin", "position", "both", "edge-phase")


def _grow_rows(mixed, right):
    """The shift on the k rows (..., k, d) of a line walk's parity
    sublattice after the coin, as k + 1 rows: the rightward color moves one
    row down, the leftward one stays, and the end row each leaves is zero."""
    k = mixed.shape[-2]
    out = np.empty(mixed.shape[:-2] + (k + 1, mixed.shape[-1]), mixed.dtype)
    out[..., 1:, right] = mixed[..., right]
    out[..., 0, right] = 0.0
    out[..., :k, 1 - right] = mixed[..., 1 - right]
    out[..., k, 1 - right] = 0.0
    return out


def decohere_evolve(op, p, projectors, rho0, m):
    """m steps of the walk interrupted by measurement with rate 1-p.

    Each step applies the unitary and then, with probability 1-p, the
    projective measurement named by ``projectors``: onto coin states,
    position states, or both registers ("edge-phase" dephases every
    position-and-coin basis state and acts identically to "both").

    On a cycle with one coin shared by every vertex, rho is stored and
    stepped only on the sites it can occupy, when those of rho0, in
    [lo, hi), share one parity and the light cone fits the cycle for all m
    steps (lo - m >= 0 and hi + m <= n).  A walker moves one site per step,
    so after t steps rho is a (k, d, k, d) block whose row j holds site
    lo - t + 2j, one row longer after every step: each half of the
    conjugation runs ``_coin`` on the k rows of one index, then
    ``_grow_rows`` shifts them.  Otherwise the whole matrix steps through
    ``step``, bit for bit the same.  Real coins on a real rho0 evolve in
    real arithmetic.  The result's trace is checked to lie within 1e-9 of 1,
    as DensityState checks it, and its positivity on its nonzero block.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("unitarity rate must lie in [0, 1]")
    if projectors not in _PROJECTOR_SETS:
        raise ValueError(f"unknown projector set {projectors!r}")
    if rho0.shape != (op.n, op.d):
        raise ValueError("density state does not match the operator")
    if m < 0:
        raise ValueError(f"step count m={m} must be nonnegative")
    n, d = op.n, op.d
    flat = rho0.matrix
    nonzero = flat.any(axis=0) | flat.any(axis=1)
    sites = np.flatnonzero(nonzero.reshape(n, d).any(axis=1))
    rho = flat.reshape(n, d, n, d)
    if op.dtype.kind != "c" and not rho.imag.any():
        rho = rho.real
    sublattice = (op.graph.family == "cycle" and op._coins is None
                  and sites.size > 0 and sites[0] - m >= 0
                  and sites[-1] + 1 + m <= n
                  and not np.any((sites - sites[0]) % 2))
    if sublattice:
        rows = slice(sites[0], sites[-1] + 1, 2)
        rho = rho[rows, :, rows]
        size = len(rho) + m

        def advance(part):
            return _grow_rows(op._coin(part), op._right)
    else:
        size = n
        advance = op.step
    # the measurement factor depends on row differences only, so one built
    # at the last and largest block serves every block as its corner
    keep = np.ones((size, d, size, d))
    if projectors != "coin":
        keep *= np.eye(size)[:, None, :, None]
    if projectors != "position":
        keep *= np.eye(d)[None, :, None, :]
    factor = p + (1.0 - p) * keep
    for _ in range(m):
        # conjugation by the step operator: U acts on the column index of
        # conj(rho) to give rho U^dagger, then on the row index
        rho = advance(rho.conj()).conj()
        rho = advance(rho.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
        k = len(rho)
        rho = rho * factor[:k, :, :k]
    k = len(rho)
    block = rho.reshape(k * d, k * d)
    block = 0.5 * (block + block.conj().T)
    rows = slice(sites[0] - m, sites[-1] + 1 + m, 2) if sublattice else slice(n)
    flat = np.zeros((n * d, n * d), dtype=complex)
    flat.reshape(n, d, n, d)[rows, :, rows] = block.reshape(k, d, k, d)
    result = DensityState._unchecked((n, d), flat)
    result.check_positive(1e-9)
    # the bound DensityState puts on the trace's real part; the imaginary
    # part of the symmetrized diagonal is zero
    trace.check("trace drift", abs(np.trace(flat).real - 1.0), 1e-9)
    return result
