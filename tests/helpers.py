"""Helpers shared by the tests: random matrices, a CSV reader for the
package's own output files, a probability-vector check, an arc lookup, a
Metropolis chain that records every state it visits, and reference forms of
the coined hitting series and the binomial row."""

import numpy as np

from walklab import classical


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
