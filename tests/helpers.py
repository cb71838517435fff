"""Helpers shared by the tests: random matrices, a CSV reader for the
package's own output files, a probability-vector check, an arc lookup, a
Metropolis chain that records every state it visits, and reference forms of
the coined hitting series, the binomial row, the classical first-hit series,
the subset walk on its whole state, the subset graph, the fixed-point search,
the Grover run and the NAND-tree evaluation and draw."""

import math
from itertools import combinations

import numpy as np

from walklab import classical, ctqw, graphs, grover


def random_hermitian(n, rng, scale=1.0):
    """Random Hermitian matrix with independent Gaussian entries."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_unitary(n, rng):
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    # fix the phase convention so the distribution does not depend on the
    # sign choices inside QR
    return q * (np.diag(r) / np.abs(np.diag(r)))


def read_csv(path):
    """Read back a table written by ``datafiles.write_csv``.

    Returns the header as a list of strings and the rows as a list of lists
    with numeric cells converted to float when possible.
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return header, rows


def check_distribution(p, tol=1e-9):
    """Raise when ``p`` is not a probability vector within ``tol``."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("expected a 1-d probability vector")
    if not np.all(p >= -tol):
        raise ValueError("negative probability")
    total = p.sum()
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return p


def arc_index(arcs):
    """Position of each (source, destination) arc of an arc array."""
    return {arc: i for i, arc in enumerate(map(tuple, arcs.tolist()))}


def metropolis_chain(model, beta, steps, rng, start=None):
    """Sample the Gibbs distribution at inverse temperature ``beta`` through
    ``classical._metropolis``, drawing from the Generator ``rng`` itself.

    Returns the visited states (including the start) and the number of
    accepted moves.  The states are read off the calls to ``propose``, so
    the chain runs the generic loop whatever the model's form.
    """
    if beta < 0:
        raise ValueError("inverse temperature must be nonnegative")
    visited = []

    def propose(state, draws):
        visited.append(state)
        return model.propose(state, draws)

    recording = classical.EnergyModel(model.num_states, model.energy, propose)
    rng = np.random.default_rng(rng)
    state = int(rng.integers(model.num_states)) if start is None else start
    state, _, accepted = classical._metropolis(
        recording, beta, steps, rng, state, model.energy(state))
    return np.array(visited + [state], dtype=np.int64), accepted


def whole_state_hitting(op, psi0, target, m_max):
    """One-shot and monitored arrival series at ``target`` from the whole
    state stepped by ``op.step``, each step's coin probabilities summed one
    after another down a C-ordered copy: the reference for a walk that
    steps only the side of a bipartite graph it is on."""
    psi = op.check_state(psi0)
    one_shot, first_hit = np.empty(m_max + 1), np.empty(m_max + 1)
    pair = np.stack([psi, psi])
    for t in range(m_max + 1):
        if t:
            pair = op.step(pair)
        one_shot[t], first_hit[t] = np.add.reduce(
            np.abs(pair[:, target].T.copy()) ** 2, axis=0)
        pair[1, target] = 0.0
    return one_shot, first_hit


def multiplicative_binomial(m):
    """C(m, k) / 2.0**m at position 2k of a zero row of 2m + 1 cells, for
    every k from 0 to m by the exact integer recurrence, without the
    mirror symmetry."""
    probs = np.zeros(2 * m + 1)
    scale = 2.0**m
    c = 1
    for k in range(m + 1):
        probs[2 * k] = c / scale
        c = c * (m - k) // (k + 1)
    return probs


def whole_matrix_first_hit(chain, start, target, horizon):
    """First-hit series from the whole absorbed matrix applied to the whole
    distribution at every step: the reference for a scan that fills only
    the rows a step can reach."""
    absorbed = chain.matrix.copy()
    absorbed[:, target] = 0.0
    absorbed[target, target] = 1.0
    p = np.zeros(absorbed.shape[0])
    p[start] = 1.0
    f = np.zeros(horizon + 1)
    for m in range(1, horizon + 1):
        seen = p[target]
        p = absorbed @ p
        f[m] = p[target] - seen
    return f


def whole_state_coin(walk, state):
    """Grover coin of a ``subset.SubsetWalk`` on every pointer block of both
    sides of a whole arc state."""
    n, q = walk.n, walk.q
    out = state.copy()
    left = out[: walk.left_dim].reshape(-1, n - q)
    left[:] = 2.0 / (n - q) * left.sum(axis=1, keepdims=True) - left
    right = out[walk.left_dim:].reshape(-1, q + 1)
    right[:] = 2.0 / (q + 1) * right.sum(axis=1, keepdims=True) - right
    return out


def whole_state_shift(walk, state):
    """Reverse every arc of a whole arc state, at one query on the walk's
    ledger."""
    walk.queries += 1
    return state[walk._reverse]


def whole_state_phase(walk, state):
    """Flip the good q-sets' left arcs of a whole arc state."""
    out = state.copy()
    out[: walk.left_dim][walk._flips] *= -1
    return out


def whole_state_runs(walk, tau1, tau2):
    """The states and ledgers ``walk.runs(tau1, tau2)`` yields, from the
    whole arc state coined and shifted on both sides at every half-step:
    the reference for a walk that steps only the side it is on."""
    state = walk.initial_state()
    yield state, walk.queries
    for _ in range(tau2):
        state = whole_state_phase(walk, state)
        for _ in range(2 * tau1):
            state = whole_state_shift(walk, whole_state_coin(walk, state))
        yield state, walk.queries


def sorted_tuple_subset_bipartite(n_items, q):
    """``graphs.subset_bipartite`` built from the subsets as sorted tuples
    in colex order, each q-set joined to the (q+1)-set of each element it
    lacks through a dictionary."""
    def colex(k):
        return sorted(combinations(range(n_items), k),
                      key=lambda s: tuple(reversed(s)))
    left, right = colex(q), colex(q + 1)
    right_index = {s: len(left) + i for i, s in enumerate(right)}
    pairs = [(i, right_index[tuple(sorted(s + (x,)))])
             for i, s in enumerate(left)
             for x in set(range(n_items)) - set(s)]
    labels = tuple(frozenset(s) for s in left + right)
    return graphs.Graph(len(left) + len(right), pairs, labels=labels,
                        family="subset_bipartite", params=(n_items, q))


def composed_fixed_point(levels, n, marked, base="identity"):
    """Failure and query count of a fresh level-``levels`` fixed-point
    search, its algorithm composed as closures level by level and run once
    from the uniform state."""
    oracle = grover.Oracle(n, marked)
    third = math.pi / 3.0
    phase = grover._uniform_phase
    if base == "identity":
        fwd = inv = lambda st: st
    else:
        def fwd(st):
            return phase(math.pi, oracle.phase(math.pi, st))

        def inv(st):
            return oracle.phase(-math.pi, phase(-math.pi, st))
    for _ in range(levels):
        prev_f, prev_i = fwd, inv

        def fwd(st, f=prev_f, i=prev_i):
            return f(phase(third, i(oracle.phase(third, f(st)))))

        def inv(st, f=prev_f, i=prev_i):
            return i(oracle.phase(-third, f(phase(-third, i(st)))))
    out = fwd(np.full(n, 1.0 / math.sqrt(n), dtype=complex))
    failure = float(np.sum(np.abs(out[~oracle._mask]) ** 2))
    return grover.FixedPointResult(failure, oracle.queries)


def multiplied_plane_grover_run(n, marked, steps="auto"):
    """``grover.grover_run`` with the plane component c0 t + c1 nv built
    in full, c1 nv first, before it is taken from the state: the reference
    for a run that subtracts the scalar u c1 from every entry instead."""
    oracle = grover.Oracle(n, marked)
    k = len(oracle.marked)
    m = grover._auto_steps(n, k) if steps == "auto" else int(steps)
    index = oracle._index
    t = np.zeros(n)
    t[index] = 1.0 / math.sqrt(k)
    nv = np.zeros(n)
    nv[~oracle._mask] = 1.0 / math.sqrt(n - k)
    state = np.full(n, 1.0 / math.sqrt(n))
    comps = np.empty((m + 1, 2))
    leakage = 0.0
    plane = np.empty(n)
    for j in range(m + 1):
        c0, c1 = comps[j] = (t @ state, nv @ state)
        np.multiply(nv, c1, out=plane)
        plane[index] = c0 * t[index]
        np.subtract(state, plane, out=plane)
        leakage = max(leakage, float(np.linalg.norm(plane)))
        if j < m:
            oracle.reflect(state)
            np.subtract(2.0 * state.mean(), state, out=state)
    return grover.GroverResult(state, oracle.success(state), oracle.queries,
                               comps, leakage)


def boolean_nand(tree):
    """The boolean value of a NAND tree, by its own recursion."""
    if not isinstance(tree, tuple):
        return tree
    return 1 - (boolean_nand(tree[0]) & boolean_nand(tree[1]))


def two_pass_nand_eval(tree):
    """``ctqw.nand_eval`` as two walks down the tree, the ratio recursion
    and then ``boolean_nand``: the reference for the one-walk evaluation."""
    trace = []

    def ratio(node):
        if not isinstance(node, tuple):
            x = ctqw.NAND_SENTINEL if node == 0 else -1.0 / ctqw.NAND_SENTINEL
        else:
            x = -1.0 / (ratio(node[0]) + ratio(node[1]))
        trace.append(x)
        return x

    root = ratio(tree)
    return ctqw.NandResult(0 if abs(root) >= 1.0 else 1, boolean_nand(tree),
                           trace)


def listed_hard_nand_instance(depth, rng, value=None):
    """``ctqw.hard_nand_instance`` with the children's values in a list,
    reversed on a draw of 1, and the children built by a generator."""
    if value is None:
        value = int(rng.integers(2))
    if depth == 0:
        return value
    if value == 0:
        kids = [1, 1]
    else:
        kids = [0, 1]
        if rng.integers(2):
            kids.reverse()
    return tuple(listed_hard_nand_instance(depth - 1, rng, v) for v in kids)
