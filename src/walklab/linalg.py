"""Hermitian/unitary linear algebra shared by the walk modules.

Thin, checked wrappers around numpy/scipy decompositions, and one
invariant-subspace core: an operator known only by its action is compressed
to the span a start vector reaches, checked there, and that small block is
decomposed densely.
"""

import numpy as np

from walklab import trace

__all__ = [
    "hermiticity_defect",
    "unitarity_defect",
    "eig_hermitian",
    "evolve_many",
    "invariant_block",
    "evolve_krylov",
    "unitary_eigensystem",
    "group_indices_by_phase",
    "dephased_probabilities",
]

HERMITIAN_TOL = 1e-8
UNITARY_TOL = 1e-8
INVARIANCE_TOL = 1e-10


def _largest(a):
    """Largest |entry| of ``a``: 0 when empty, inf when not finite, so that
    a NaN or inf input fails every defect gate."""
    worst = float(np.max(np.abs(a))) if a.size else 0.0
    return worst if np.isfinite(worst) else np.inf


def hermiticity_defect(a):
    """Largest entrywise deviation of ``a`` from its conjugate transpose."""
    a = np.asarray(a)
    return _largest(a - a.conj().T)

def unitarity_defect(u):
    """Largest entrywise deviation of U†U from the identity."""
    u = np.asarray(u)
    return _largest(u.conj().T @ u - np.eye(u.shape[0]))


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Square matrix, Hermitian within ``HERMITIAN_TOL``.

    Returns
    -------
    values : ndarray
        Real eigenvalues in ascending order.
    vectors : ndarray
        Orthonormal eigenvectors as columns, ``h @ v[:, j] = w[j] v[:, j]``.
    """
    h = np.asarray(h)
    defect = hermiticity_defect(h)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3g})")
    values, vectors = np.linalg.eigh(h)
    return values, vectors


def evolve_many(h, times, psi):
    """exp(-i h t) psi for every t in ``times``, sharing one diagonalization.

    Returns an array of shape (len(times), dim).
    """
    values, vectors = eig_hermitian(h)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[0] != vectors.shape[0]:
        raise ValueError("state dimension does not match the Hamiltonian")
    coeffs = vectors.conj().T @ psi
    times = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.outer(times, values))
    return (phases * coeffs) @ vectors.T


def invariant_block(q, aq, what, hermitian=False):
    """B = Q^H (A Q) for orthonormal Q and ``aq`` = A Q, or its Hermitian
    part with ``hermitian``, and the residual max|A Q - Q B|, gated under
    the name ``what`` at ``INVARIANCE_TOL``."""
    b = q.conj().T @ aq
    if hermitian:
        b = 0.5 * (b + b.conj().T)
    residual = _largest(aq - q @ b)
    trace.check(what, residual, INVARIANCE_TOL)
    return b, residual


def evolve_krylov(apply, times, psi):
    """exp(-i H t) psi for every t in ``times``, where ``apply`` maps a
    vector to H times it.

    Lanczos with full reorthogonalization runs until the next vector
    vanishes against |H q|, within dim(psi) steps.  H compressed to that
    Krylov space must be Hermitian and invariant to ``INVARIANCE_TOL``.
    Returns the coefficients c, one row per time, on the orthonormal
    basis Q of the space, Q itself and the residual: the states are
    c @ Q.T, and a caller maps back only the rows of Q it reads.
    """
    norm = float(np.linalg.norm(psi))
    basis, images = [np.asarray(psi) / norm], []
    while len(images) < len(basis):
        images.append(apply(basis[-1]))
        q = np.column_stack(basis)
        w = images[-1] - q @ (q.conj().T @ images[-1])
        w -= q @ (q.conj().T @ w)
        beta, scale = np.linalg.norm(w), np.linalg.norm(images[-1])
        if len(basis) < len(psi) and beta > 1e-12 * scale:
            basis.append(w / beta)
    b, residual = invariant_block(q, np.column_stack(images),
                                  "Krylov-block residual", hermitian=True)
    return evolve_many(b, times, np.eye(len(basis))[0] * norm), q, residual


def unitary_eigensystem(u):
    """Eigenvalues and an orthonormal eigenbasis of a unitary matrix.

    numpy's general eigensolver does not return orthogonal eigenvectors for
    degenerate eigenvalues, which breaks limiting-distribution sums; the
    complex Schur form of a normal matrix is diagonal with unitary Z, which
    is exactly an orthonormal eigenbasis.

    Returns
    -------
    values : ndarray
        Unit-modulus eigenvalues.
    vectors : ndarray
        Orthonormal eigenvector columns.
    """
    u = np.asarray(u, dtype=complex)
    defect = unitarity_defect(u)
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3g})")
    # Imported here so that importing the package does not load scipy.linalg.
    import scipy.linalg

    t, z = scipy.linalg.schur(u, output="complex")
    trace.check("Schur off-diagonal", _largest(t - np.diag(np.diag(t))), 1e-7)
    return np.diag(t).copy(), z


def group_indices_by_phase(values, tol=1e-8):
    """Partition eigenvalue indices into groups of equal eigenvalues.

    Unit-circle values are sorted by angle, real values along the line, and
    neighbours within ``tol`` chain into one group.  A cluster straddling the
    circle's branch cut is merged back; on the line this never fires.
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        return []
    order = np.argsort(values if np.isrealobj(values) else np.angle(values))
    groups = [[order[0]]]
    for idx in order[1:]:
        if abs(values[idx] - values[groups[-1][-1]]) <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    # merge across the -pi/pi cut
    if len(groups) > 1 and abs(values[groups[0][0]] - values[groups[-1][-1]]) <= tol:
        groups[0] = groups.pop() + groups[0]
    return [np.array(g) for g in groups]


def dephased_probabilities(vectors, groups, psi):
    """Long-time average of |<x|psi(t)>|^2 for every basis vector x.

    ``groups`` partitions the orthonormal eigenbasis ``vectors`` into
    degenerate levels (see :func:`group_indices_by_phase`); cross terms
    between levels average out, leaving the interference inside each.
    """
    amplitudes = vectors.conj().T @ psi
    probs = np.zeros(vectors.shape[0])
    for group in groups:
        probs += np.abs(vectors[:, group] @ amplitudes[group]) ** 2
    return probs

