"""Two-register quantization of Markov chains.

A row-stochastic transition matrix P lifts to a walk on pairs of
vertices: reflect about the span of the states |x>|row x of sqrt(P)>,
swap the registers, reflect again.  The spectrum of the resulting
unitary is controlled by the discriminant sqrt(P_xy P_yx), which is what
makes quantized chains useful: a marked-vertex decision problem that a
classical chain solves in 1/(delta eps) steps shows up here as a phase
gap of order sqrt(delta eps).

The spectra never need the n^2 x n^2 walk.  With T the isometry and S
the swap, span{T, S T} is invariant under W and has dimension at most 2n;
on its complement W is the identity.  ``spectrum_map`` and
``marked_phase_gap`` therefore diagonalize the compressed block Q^T W Q on
an orthonormal basis Q of that span, applying W structurally, and check
the invariance residual max|W Q - Q B| before they trust it.
``szegedy_build`` still forms the dense walk, as the reference the tests
hold the compressed spectra against.

The classical_walks module keeps column-stochastic matrices; transpose
at this boundary (``from_markov_chain`` does it for you).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from walklab import linalg as _linalg
from walklab import trace

__all__ = [
    "TwoRegisterWalk",
    "szegedy_build",
    "discriminant",
    "from_markov_chain",
    "SpectrumMap",
    "spectrum_map",
    "MarkedChain",
    "marked_modify",
    "classical_hit_probability",
    "PhaseGap",
    "marked_phase_gap",
]

OVERLAP_TOL = 1e-10
INVARIANCE_TOL = 1e-10
# a discriminant eigenvalue with |lambda| < 1 - PAIR_CUT gives the walk a
# rotating phase pair; the prediction and the compressed basis share it
PAIR_CUT = 1e-12


def _check_row_stochastic(p):
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("transition matrix must be square")
    if not np.min(p) >= -1e-12:
        raise ValueError("transition probabilities must be nonnegative")
    if not np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-10:
        raise ValueError("rows must sum to one")
    return p


def from_markov_chain(chain):
    """Row-stochastic matrix of a classical_walks chain (which stores the
    column-stochastic convention)."""
    return np.asarray(chain.matrix).T.copy()


def discriminant(p):
    p = _check_row_stochastic(p)
    return np.sqrt(p * p.T)


@dataclass(frozen=True)
class TwoRegisterWalk:
    """Walk unitary W = R2 R1 on the doubled register, together with the
    pieces it is made of.  ``isometry`` maps |x> to |x>|row x>; the swap
    is stored as the index permutation it induces."""

    p: np.ndarray = field(compare=False)
    isometry: np.ndarray = field(compare=False)
    r1: np.ndarray = field(compare=False)
    r2: np.ndarray = field(compare=False)
    swap: np.ndarray = field(compare=False)
    w: np.ndarray = field(compare=False)

    @property
    def n(self):
        return self.p.shape[0]

    def position_distribution(self, state):
        """Distribution of the first register."""
        return (np.abs(np.asarray(state).reshape(self.n, self.n)) ** 2).sum(axis=1)


def _lift(p):
    """sqrt(P) and the register swap, the two pieces the walk is made of.

    The isometry T maps |x> to |x>|row x of sqrt(P)>; ``_t_apply`` and
    ``_t_adjoint`` apply it and its transpose from sqrt(P).  The swap S
    acts on the doubled register as the index permutation v -> v[swap].
    """
    n = p.shape[0]
    return np.sqrt(p), np.arange(n * n).reshape(n, n).T.ravel()


def _t_apply(root, c):
    """T c for coefficient columns c of shape (n, m)."""
    n = root.shape[0]
    return (root[:, :, None] * c[:, None, :]).reshape(n * n, c.shape[1])


def _t_adjoint(root, v):
    """T^T v for columns v of shape (n * n, m)."""
    n = root.shape[0]
    return np.einsum("xy,xym->xm", root, v.reshape(n, n, -1))


def szegedy_build(p):
    p = _check_row_stochastic(p)
    n = p.shape[0]
    root, swap = _lift(p)
    t = _t_apply(root, np.eye(n))
    r1 = 2.0 * (t @ t.T) - np.eye(n * n)
    r2 = r1[np.ix_(swap, swap)]
    return TwoRegisterWalk(p, t, r1, r2, swap, r2 @ r1)


def _invariant_block(p):
    """The walk compressed to span{T, S T}.

    Every discriminant eigenpair (lam, v) gives the unit vector T v and,
    when |lam| < 1, the unit vector (S T v - lam T v) / sqrt(1 - lam^2);
    together they form an orthonormal basis Q.  W = S R1 S R1 with
    R1 u = 2 T (T^T u) - u is applied to Q without forming W.

    Returns sqrt(P), Q, B = Q^T W Q and the invariance residual
    max|W Q - Q B|; raises ToleranceError when that residual is over
    ``INVARIANCE_TOL`` or not finite.
    """
    root, swap = _lift(p)
    lams, vecs = _linalg.eig_hermitian(discriminant(p))
    tv = _t_apply(root, vecs)
    rotating = np.abs(lams) < 1.0 - PAIR_CUT
    lam = lams[rotating]
    partner = tv[swap][:, rotating] - lam * tv[:, rotating]
    q = np.hstack([tv, partner / np.sqrt(1.0 - lam ** 2)])

    def r1(u):
        return 2.0 * _t_apply(root, _t_adjoint(root, u)) - u

    wq = r1(r1(q)[swap])[swap]
    b = q.T @ wq
    residual = float(np.max(np.abs(wq - q @ b)))
    trace.check("invariant-span residual", residual, INVARIANCE_TOL)
    return root, q, b, residual


@dataclass(frozen=True)
class SpectrumMap:
    """Correspondence between discriminant eigenvalues and walk
    eigenphases.  For every |lambda| < 1 the walk picks up the conjugate
    phase pair +-2 arccos(lambda); everything else sits at +-1.
    ``invariance_residual`` is max|W Q - Q B| of the compression the walk
    eigenvalues came from."""

    d_values: np.ndarray = field(compare=False)
    predicted_phases: np.ndarray = field(compare=False)
    pairing_error: float = 0.0
    residual_values: np.ndarray = field(default=None, compare=False)
    invariance_residual: float = 0.0


def spectrum_map(p):
    """Pair the phases predicted from the discriminant with the walk's.

    The walk eigenvalues are those of the compressed block plus one +1 for
    every dimension outside span{T, S T}; ``residual_values`` holds the
    ones no prediction claimed.
    """
    p = _check_row_stochastic(p)
    n = p.shape[0]
    d_values = np.sort(np.linalg.eigvalsh(discriminant(p)))[::-1]
    _, q, b, invariance = _invariant_block(p)
    w_values, _ = _linalg.unitary_eigensystem(b)
    predicted = []
    for lam in d_values:
        if abs(lam) < 1.0 - PAIR_CUT:
            theta = math.acos(lam)
            predicted.append(np.exp(2j * theta))
            predicted.append(np.exp(-2j * theta))
    available = list(range(len(w_values)))
    worst = 0.0
    for target in predicted:
        dists = np.abs(w_values[available] - target)
        pick = int(np.argmin(dists))
        worst = max(worst, float(dists[pick]))
        available.pop(pick)
    residual = np.concatenate([w_values[available],
                               np.ones(n * n - q.shape[1], dtype=complex)])
    return SpectrumMap(d_values, np.angle(np.asarray(predicted)), worst,
                       residual, invariance)


@dataclass(frozen=True)
class MarkedChain:
    """Chain modified to stand still on marked vertices, with the operator
    norm of the unmarked block and its spectral bound 1 - delta*eps."""

    p_prime: np.ndarray = field(compare=False)
    marked: frozenset
    norm: float = 0.0
    bound: float = 0.0
    delta: float = 0.0
    epsilon: float = 0.0

    @property
    def unmarked(self):
        n = self.p_prime.shape[0]
        return [x for x in range(n) if x not in self.marked]


def _reaches_marked(p, marked):
    step = p > 0
    reached = np.zeros(p.shape[0], dtype=bool)
    reached[list(marked)] = True
    frontier = reached
    while frontier.any():
        frontier = step[:, frontier].any(axis=1) & ~reached
        reached = reached | frontier
    return bool(reached.all())


def marked_modify(p, marked):
    """Freeze the marked vertices of a symmetric chain.

    Rows of marked vertices become point masses; the block on unmarked
    vertices keeps the original entries.  Returns the modified chain, the
    operator norm of that block, and the bound 1 - delta*eps with
    delta the spectral gap of P and eps the marked fraction.
    """
    p = _check_row_stochastic(p)
    if np.max(np.abs(p - p.T)) > 1e-10:
        raise ValueError("the bound needs a symmetric chain")
    n = p.shape[0]
    marked = frozenset(int(x) for x in marked)
    if not marked:
        raise ValueError("marked set is empty")
    if any(not 0 <= x < n for x in marked):
        raise ValueError("marked vertex out of range")
    if not _reaches_marked(p, marked):
        raise ValueError("part of the chain cannot reach any marked vertex")
    p_prime = p.copy()
    for x in marked:
        p_prime[x] = 0.0
        p_prime[x, x] = 1.0
    unmarked = [x for x in range(n) if x not in marked]
    block = p[np.ix_(unmarked, unmarked)]
    norm = float(np.linalg.norm(block, 2)) if unmarked else 0.0
    spec = np.sort(np.linalg.eigvalsh(p))[::-1]
    delta = float(1.0 - spec[1]) if n > 1 else 1.0
    eps = len(marked) / n
    return MarkedChain(p_prime, marked, norm, 1.0 - delta * eps, delta, eps)


def classical_hit_probability(chain, t):
    """Chance of having been absorbed after t steps, starting uniformly on
    the unmarked vertices."""
    unmarked = chain.unmarked
    if not unmarked:
        return 1.0
    block = chain.p_prime[np.ix_(unmarked, unmarked)]
    o = np.full(len(unmarked), 1.0 / math.sqrt(len(unmarked)))
    return 1.0 - float(o @ np.linalg.matrix_power(block, t) @ o)


@dataclass(frozen=True)
class PhaseGap:
    phi0: float
    bound: float
    invariance_residual: float = 0.0


def marked_phase_gap(p, marked):
    """Smallest rotating eigenphase the walk of the frozen chain shows to
    the uniform unmarked state, against the guarantee 2 sqrt(delta eps).

    With nothing marked the uniform state is stationary and the measured
    phase is zero.
    """
    p = _check_row_stochastic(p)
    n = p.shape[0]
    marked = frozenset(int(x) for x in marked)
    if len(marked) >= n:
        raise ValueError("need at least one unmarked vertex to start from")
    if not marked:
        return PhaseGap(0.0, 0.0)
    mc = marked_modify(p, marked)
    root, q, b, invariance = _invariant_block(mc.p_prime)
    unmarked = mc.unmarked
    o = np.zeros((n, 1))
    o[unmarked] = 1.0 / math.sqrt(len(unmarked))
    start = q.T @ _t_apply(root, o)[:, 0]
    values, vectors = _linalg.unitary_eigensystem(b)
    overlaps = np.abs(vectors.conj().T @ start)
    busy = overlaps > OVERLAP_TOL
    phases = np.abs(np.angle(values[busy]))
    rotating = phases[phases > 1e-9]
    phi0 = float(rotating.min()) if rotating.size else 0.0
    return PhaseGap(phi0, 2.0 * math.sqrt(mc.delta * mc.epsilon), invariance)
