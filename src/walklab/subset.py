"""Quantum walk for finding k-element subsets with a wanted property.

The walker moves on the arcs of ``graphs.subset_bipartite(n, q)``, the
bipartite graph whose left vertices are the q-element subsets of the
ground set and whose right vertices are the (q+1)-element ones; the arcs
leaving a set are its pointer register, one per element to add or
remove.  Grover coins mix the pointer, a translation reverses the arc at
one oracle query each, and a phase flip marks q-sets already containing a
good k-subset.  Walking on subsets instead of elements is what buys the
N^{k/(k+1)} query scaling.

The data register holding the oracle values of the current set is kept
implicit: the set determines it uniquely, so the amplitudes are
identical and only the query count has to pretend it exists.
"""

import itertools
import math
from collections import namedtuple

import numpy as np

from walklab import graphs as _graphs

__all__ = [
    "SubsetWalk",
    "SubsetWalkResult",
    "subset_walk_run",
    "CostEstimate",
    "cost_model",
    "optimal_exponent",
]


class SubsetWalk:
    """Dense simulation on the arcs of ``graphs.subset_bipartite(n, q)``.

    Each set's pointer register is its block of out-arcs, n - q wide on
    the left and q + 1 on the right; ``left_sets`` lists the q-sets in
    colex order.  ``queries`` counts the oracle calls of the last run.
    ``runs`` yields every prefix of one schedule's trajectory, so a scan
    over the outer count steps each state once.

    The graph is bipartite, so after an even number of shifts the state
    is on the left arcs and after an odd number on the right, and the two
    sides are equally long, C(n, q)(n - q) = C(n, q + 1)(q + 1).  ``coin``,
    ``shift`` and ``phase`` act on the vector of the side the state is
    on, side 0 the left and 1 the right; ``runs`` yields whole states,
    +0.0 on the right arcs.
    """

    def __init__(self, n, q, f, prop, k):
        if n > 14:
            raise ValueError("state space too large for dense simulation")
        if not 1 <= q < n:
            raise ValueError("need 1 <= q < n")
        if not 1 <= k <= q:
            raise ValueError("property size k must satisfy 1 <= k <= q")
        self.n, self.q, self.k = n, q, k
        g = _graphs.subset_bipartite(n, q)
        arcs = _graphs.arcs(g)
        self._reverse = _graphs.arc_reversal(arcs)
        n_left = math.comb(n, q)
        self.left_sets = [tuple(sorted(s)) for s in g.labels[:n_left]]
        self.left_dim = int(np.searchsorted(arcs[:, 0], n_left))
        self.dim = len(arcs)
        self.right_dim = self.dim - self.left_dim
        # a shift from side s gathers the arcs of side 1 - s, whose
        # reversals all lie on side s, numbered within it
        self._gathers = (self._reverse[self.left_dim:],
                         self._reverse[: self.left_dim] - self.left_dim)
        self._widths = (n - q, q + 1)
        self.values = {x: f(x) for x in range(n)}
        # prop once per k-subset of the ground set; a q-set is good when
        # one of its k-subsets is
        good = {sub for sub in itertools.combinations(range(n), k)
                if prop(tuple((x, self.values[x]) for x in sub))}
        self.good_sets = np.array(
            [not good.isdisjoint(itertools.combinations(s, k))
             for s in self.left_sets])
        self._flips = np.repeat(self.good_sets, n - q)
        self.queries = 0

    def initial_state(self):
        state = np.zeros(self.dim)
        state[: self.left_dim] = 1.0 / math.sqrt(self.left_dim)
        self.queries = self.q  # loading the data register starts the ledger
        return state

    def coin(self, state, side):
        """Grover coin on each pointer block of the arcs of ``side``."""
        width = self._widths[side]
        blocks = state.reshape(-1, width)
        return (2.0 / width * blocks.sum(axis=1, keepdims=True)
                - blocks).ravel()

    def shift(self, state, side):
        """Reverse each arc of ``side``, onto the other side, at one query."""
        self.queries += 1
        return state[self._gathers[side]]

    def phase(self, state):
        """Flip the arcs of the good q-sets on the left."""
        out = state.copy()
        out[self._flips] *= -1
        return out

    def success(self, state):
        mass = np.abs(state[: self.left_dim].reshape(-1, self.n - self.q)) ** 2
        return float(mass.sum(axis=1)[self.good_sets].sum())

    def right_mass(self, state):
        return float(np.sum(np.abs(state[self.left_dim :]) ** 2))

    def runs(self, tau1, tau2):
        """The states after 0, 1, ..., tau2 outer iterations of tau1 inner
        ones, one at a time, each with ``queries`` as ``run`` leaves it."""
        state = self.initial_state()
        yield state
        left = state[: self.left_dim]
        for _ in range(tau2):
            left = self.phase(left)
            for step in range(2 * tau1):
                left = self.shift(self.coin(left, step % 2), step % 2)
            state = np.zeros(self.dim)
            state[: self.left_dim] = left
            yield state

    def run(self, tau1, tau2):
        """The last state of ``runs``."""
        for state in self.runs(tau1, tau2):
            pass
        return state


SubsetWalkResult = namedtuple(
    "SubsetWalkResult",
    "success queries tau1 tau2 best_tau1 best_tau2 best_success walk")


def subset_walk_run(n, q, k, f, prop, schedule="auto"):
    """Run the subset walk and report success against the ground truth.

    Success is the probability that the measured q-set contains a
    k-subset with the property; if no such subset exists anywhere it is
    exactly zero.  With schedule="auto" the asymptotic round-offs
    tau1 = [pi/2 sqrt(q/k)], tau2 = [pi/4 (N/q)^{k/2}] are used and the
    best schedule in a +-2 window is reported alongside, since the
    formulas assume N, q much larger than k.  ``walk`` is the SubsetWalk
    that ran, ready for further schedules on the same instance.
    """
    walk = SubsetWalk(n, q, f, prop, k)
    if schedule == "auto":
        tau1 = max(1, math.floor(math.pi / 2.0 * math.sqrt(q / k) + 0.5))
        tau2 = max(1, math.floor(math.pi / 4.0 * (n / q) ** (k / 2.0) + 0.5))
    else:
        tau1, tau2 = (int(t) for t in schedule)
        if tau1 < 0 or tau2 < 0:
            raise ValueError("schedule entries must be nonnegative")
    state = walk.run(tau1, tau2)
    success, queries = walk.success(state), walk.queries

    best = (tau1, tau2, success)
    if schedule == "auto":
        # each t1 reads its t2 from one trajectory, in the same order
        for t1 in range(max(1, tau1 - 2), tau1 + 3):
            for t2, state in enumerate(walk.runs(t1, tau2 + 2)):
                if t2 < max(1, tau2 - 2) or (t1, t2) == (tau1, tau2):
                    continue
                p = walk.success(state)
                if p > best[2] + 1e-12:
                    best = (t1, t2, p)
    return SubsetWalkResult(success, queries, tau1, tau2,
                            best[0], best[1], best[2], walk)


CostEstimate = namedtuple("CostEstimate", "exponent cost")


def _term_exponents(k, mu, variant):
    if variant == "subset":
        return [mu, (1 - mu) * k / 2.0 + mu / 2.0]
    if variant == "clique":
        return [2 * mu, (1 - mu) * k / 2.0 + 1.5 * mu]
    if variant == "recursive_clique":
        t2 = (1 - mu) * (k - 1) / 2.0
        return [2 * mu, t2 + 1.5 * mu, t2 + 0.5 + mu * (k - 1) / k]
    raise ValueError(f"unknown variant {variant!r}")


def cost_model(k, mu, variant, n=10 ** 6):
    """Query-count model of the three walk variants with q = N^mu.

    Returns the governing exponent (the largest term exponent) and the
    numeric cost at the given N with unit constants.  ``mu`` may be a
    number or an array, and both fields then follow its shape.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not np.all((0 <= mu) & (mu <= 1)):
        raise ValueError("mu must lie in [0, 1]")
    exponent = np.maximum.reduce(_term_exponents(k, mu, variant))
    q = n ** mu
    tau1 = np.sqrt(q / k)
    if variant == "subset":
        tau2 = (n / q) ** (k / 2.0)
        cost = q + 2 * tau1 * tau2
    elif variant == "clique":
        tau2 = (n / q) ** (k / 2.0)
        cost = q * q + 2 * q * tau1 * tau2
    else:
        # clique variants pay q^2 queries up front to learn the edges
        # inside the starting subset
        tau2 = (n / q) ** ((k - 1) / 2.0)
        cost = q * q + tau2 * (2 * q * tau1 + math.sqrt(n) * q ** ((k - 1) / k))
    return CostEstimate(exponent, cost)


def optimal_exponent(k, variant):
    """Exponent at the balanced choice of mu, in closed form.

    For the plain clique variant with k = 2 this is beaten by mu = 0,
    where the walk degenerates to Grover search over all edges at
    exponent 1; for every other listed case it is the true minimum.
    """
    if variant == "subset":
        return 0.5 if k == 1 else k / (k + 1)
    if variant == "clique":
        return 2 * k / (k + 1)
    if variant == "recursive_clique":
        if k < 3:
            raise ValueError("recursive variant needs k >= 3")
        return (5 * k - 2) / (2 * k + 4) if k == 3 else 2 * (k - 1) / k
    raise ValueError(f"unknown variant {variant!r}")
