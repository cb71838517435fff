"""Unstructured search on a flat register.

Two layers: the plain Grover iteration with exact oracle accounting, and
the phase-pi/3 fixed-point composition that trades the quadratic speedup
for monotone convergence.
"""

import cmath
import math
from collections import namedtuple

import numpy as np

__all__ = [
    "Oracle",
    "rotation_angle",
    "GroverResult",
    "grover_run",
    "FixedPointResult",
    "fixed_point_levels",
    "fixed_point_run",
]


class Oracle:
    """Conditional phase oracle for a marked subset, with a query ledger.

    ``reflect`` flips the sign of marked amplitudes in place, on the state
    it is given; ``phase`` applies a selective phase to a copy instead.
    Every application, including inverses, adds one query to the ledger.
    Both, and ``success``, touch the marked entries alone, through their
    sorted indices.
    """

    def __init__(self, n, marked):
        marked = frozenset(int(j) for j in marked)
        if not marked:
            raise ValueError("marked set is empty; nothing to search for")
        if len(marked) >= n:
            raise ValueError("marked set covers everything; nothing to find")
        if any(not 0 <= j < n for j in marked):
            raise ValueError("marked element out of range")
        self.n = n
        self.marked = marked
        self.queries = 0
        self._mask = np.zeros(n, dtype=bool)
        self._mask[sorted(marked)] = True
        self._index = np.flatnonzero(self._mask)

    def reflect(self, state):
        """Flip the marked signs of ``state`` in place and return it."""
        self.queries += 1
        state[self._index] *= -1
        return state

    def phase(self, angle, state):
        self.queries += 1
        out = np.array(state, dtype=complex, copy=True)
        out[self._index] *= cmath.exp(1j * angle)
        return out

    def success(self, state):
        return float(np.sum(np.abs(np.asarray(state)[self._index]) ** 2))


def _uniform_phase(angle, state):
    # selective phase on the uniform superposition; no oracle involved
    # state.mean() without its Python-level dispatch
    mean = np.add.reduce(state) / state.size
    return state + (cmath.exp(1j * angle) - 1.0) * mean


def rotation_angle(n, k):
    """Angle by which one search step turns the state in the plane spanned
    by the marked and unmarked uniform superpositions."""
    return math.acos((n - 2.0 * k) / n)


GroverResult = namedtuple("GroverResult",
                          "state success queries components leakage")


def _auto_steps(n, k):
    theta = rotation_angle(n, k)
    center = max(0, int(math.floor((math.pi / theta - 1.0) / 2.0 + 0.5)))
    best = None
    for m in range(max(0, center - 2), center + 3):
        p = math.sin((2 * m + 1) * theta / 2.0) ** 2
        if best is None or p > best[1] + 1e-15:
            best = (m, p)
    return best[0]


def grover_run(n, marked, steps="auto"):
    """Run the search iteration and report the exact query count.

    With steps="auto" the count comes from solving (2m+1) theta/2 = pi/2
    and scanning two steps to either side, which also covers the usual
    round((pi/4) sqrt(n/k)) estimate.

    ``components`` holds one row per state, from the start through the
    last step: its components on the marked and the unmarked uniform
    superpositions.  ``leakage`` is the largest norm any state has
    outside that plane.
    """
    oracle = Oracle(n, marked)
    k = len(oracle.marked)
    m = _auto_steps(n, k) if steps == "auto" else int(steps)
    if m < 0:
        raise ValueError("step count must be nonnegative")
    index = oracle._index
    t = np.zeros(n)
    t[index] = 1.0 / math.sqrt(k)
    u = 1.0 / math.sqrt(n - k)
    nv = np.zeros(n)
    nv[~oracle._mask] = u
    state = np.full(n, 1.0 / math.sqrt(n))
    comps = np.empty((m + 1, 2))
    leakage = 0.0
    # t and nv have disjoint supports, and nv is u wherever t is 0, so the
    # residual state - c0 t - c1 nv is state - u c1 with the marked entries
    # set to state - c0 t; it differs at most in the sign of a zero
    plane = np.empty(n)
    for j in range(m + 1):
        c0, c1 = comps[j] = (t @ state, nv @ state)
        np.subtract(state, u * c1, out=plane)
        plane[index] = state[index] - c0 * t[index]
        leakage = max(leakage, float(np.linalg.norm(plane)))
        if j < m:
            # the oracle, then the diffusion 2 mean - s, both in place
            oracle.reflect(state)
            np.subtract(2.0 * state.mean(), state, out=state)
    return GroverResult(state, oracle.success(state), oracle.queries, comps,
                        leakage)


FixedPointResult = namedtuple("FixedPointResult", "failure queries")


def fixed_point_levels(levels, n, marked, base="identity"):
    """Recursively composed phase-pi/3 search, every level from one run.

    Each level wraps the previous algorithm A as
    A' = A . Rs(pi/3) . inverse(A) . Rmarked(pi/3) . A, driving the
    failure probability f to f^3 while tripling the query cost plus one.
    The base algorithm is either the identity or one plain Grover
    iteration written as Rs(pi) after Rmarked(pi).

    Returns a FixedPointResult for each level 0, 1, ..., ``levels``.  Level
    l applies A_{l-1} . Rs(pi/3) . inverse(A_{l-1}) . Rmarked(pi/3) to the
    output of level l - 1, which is the output of A_{l-1}, so each level's
    state and query count are those of a fresh level-l run.
    """
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    oracle = Oracle(n, marked)
    third = math.pi / 3.0

    if base == "identity":
        def fwd(st):
            return st

        def inv(st):
            return st
    elif base == "grover-iterate":
        def fwd(st):
            return _uniform_phase(math.pi, oracle.phase(math.pi, st))

        def inv(st):
            return oracle.phase(-math.pi, _uniform_phase(-math.pi, st))
    else:
        raise ValueError(f"unknown base algorithm {base!r}")

    out = fwd(np.full(n, 1.0 / math.sqrt(n), dtype=complex))
    results = []
    for level in range(levels + 1):
        if level:
            out = fwd(_uniform_phase(third, inv(oracle.phase(third, out))))
            prev_f, prev_i = fwd, inv

            def fwd(st, f=prev_f, i=prev_i):
                return f(_uniform_phase(third, i(oracle.phase(third, f(st)))))

            def inv(st, f=prev_f, i=prev_i):
                return i(oracle.phase(-third, f(_uniform_phase(-third, i(st)))))
        # the unmarked weight itself: 1 - success cancels below about 1e-13
        failure = float(np.sum(np.abs(out[~oracle._mask]) ** 2))
        results.append(FixedPointResult(failure, oracle.queries))
    return results


def fixed_point_run(levels, n, marked, base="identity"):
    """The last result of ``fixed_point_levels``: the failure probability
    and query count of the level-``levels`` search."""
    return fixed_point_levels(levels, n, marked, base)[-1]
