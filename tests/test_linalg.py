import numpy as np
import pytest

from helpers import check_distribution, random_hermitian, random_unitary
from walklab import coined, ctqw, graphs, scattering, szegedy
from walklab.linalg import (
    dephased_probabilities,
    eig_hermitian,
    evolve_krylov,
    evolve_many,
    group_indices_by_phase,
    hermiticity_defect,
    unitarity_defect,
    unitary_eigensystem,
)
from walklab.trace import ToleranceError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_pauli_x_spectrum():
    values, vectors = eig_hermitian(SIGMA_X)
    assert np.allclose(values, [-1.0, 1.0])
    assert np.allclose(vectors.conj().T @ vectors, np.eye(2), atol=1e-12)


def test_zero_matrix_spectrum():
    values, _ = eig_hermitian(np.zeros((4, 4)))
    assert np.allclose(values, 0.0)


def test_circulant_ring_spectrum():
    # Ring adjacency eigenvalues are 2 cos(2 pi k / 5).
    n = 5
    a = np.zeros((n, n))
    for j in range(n):
        a[j, (j + 1) % n] = a[(j + 1) % n, j] = 1.0
    values, _ = eig_hermitian(a)
    expected = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.allclose(values, expected, atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 24))
        h = random_hermitian(n, rng)
        values, vectors = eig_hermitian(h)
        recon = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(recon - h)) < 1e-8
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(n))) < 1e-8
        assert np.all(np.diff(values) >= -1e-12)


def test_eig_reconstruction_large():
    rng = np.random.default_rng(12)
    h = random_hermitian(256, rng)
    values, vectors = eig_hermitian(h)
    recon = (vectors * values) @ vectors.conj().T
    assert np.max(np.abs(recon - h)) < 1e-8


def test_evolution_identity_at_zero_time():
    rng = np.random.default_rng(1)
    h = random_hermitian(6, rng)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    assert np.allclose(evolve_many(h, [0.0], psi)[0], psi, atol=1e-12)


def test_evolution_two_level_closed_form():
    theta = 0.7341
    psi = np.array([1.0, 0.0], dtype=complex)
    out = evolve_many(SIGMA_X, [theta], psi)[0]
    expected = np.array([np.cos(theta), -1j * np.sin(theta)])
    assert np.allclose(out, expected, atol=1e-12)


def test_evolution_composition_and_isometry():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        h = random_hermitian(n, rng)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        phi = rng.normal(size=n) + 1j * rng.normal(size=n)
        phi /= np.linalg.norm(phi)
        t1, t2 = rng.uniform(-3, 3, size=2)
        once = evolve_many(h, [t1 + t2], psi)[0]
        twice = evolve_many(h, [t1], evolve_many(h, [t2], psi)[0])[0]
        assert np.max(np.abs(once - twice)) < 1e-9
        # inner products are preserved
        before = np.vdot(phi, psi)
        after = np.vdot(evolve_many(h, [t1], phi)[0],
                        evolve_many(h, [t1], psi)[0])
        assert abs(before - after) < 1e-9


def test_evolution_dimension_mismatch():
    with pytest.raises(ValueError):
        evolve_many(SIGMA_X, [1.0], np.ones(3))


def test_evolve_many_matches_single():
    rng = np.random.default_rng(9)
    h = random_hermitian(7, rng)
    psi = rng.normal(size=7) + 1j * rng.normal(size=7)
    psi /= np.linalg.norm(psi)
    times = [0.0, 0.3, 1.7, 4.0]
    block = evolve_many(h, times, psi)
    for row, t in zip(block, times):
        assert np.allclose(row, evolve_many(h, [t], psi)[0], atol=1e-10)


KRYLOV_TIMES = np.linspace(0.0, 4.0, 17)


def _krylov_against_dense(apply, h, psi):
    coeffs, q, residual = evolve_krylov(apply, KRYLOV_TIMES, psi)
    dense = evolve_many(h, KRYLOV_TIMES, psi)
    assert np.max(np.abs(coeffs @ q.T - dense)) <= 1e-12
    assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1]))) <= 1e-12
    assert 0.0 <= residual <= 1e-10
    return q.shape[1]


@pytest.mark.parametrize("dim", range(1, 7))
def test_krylov_matches_dense_on_the_hypercube(dim):
    h = ctqw.graph_hamiltonian(graphs.hypercube(dim), "negative-adjacency")
    corner = np.eye(h.dim)[0]
    assert _krylov_against_dense(ctqw.hypercube_apply(dim), h.matrix,
                                 corner) == dim + 1


@pytest.mark.parametrize("marked", [1, 2, 3])
def test_krylov_matches_dense_on_complete_graph_search(marked):
    n = 24
    h = ctqw.search_hamiltonian(graphs.complete(n), 1.0 / n, range(marked))
    uniform = np.full(n, 1.0 / np.sqrt(n))
    assert _krylov_against_dense(ctqw.complete_search_apply(n, marked),
                                 h.matrix, uniform) == 2


def test_krylov_closes_at_full_dimension_from_a_generic_start():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(12, 12))
    real = (0.5 * (a + a.T), rng.normal(size=12))
    complex_ = (random_hermitian(12, rng),
                rng.normal(size=12) + 1j * rng.normal(size=12))
    for h, psi in (real, complex_):
        assert _krylov_against_dense(lambda v: h @ v, h, psi) == 12


def test_krylov_gate_fails_closed():
    cube = ctqw.hypercube_apply(4)
    corner = np.eye(16)[0]
    for broken in (lambda v: cube(v) + 1e-6 * np.roll(v, 1, axis=0),
                   lambda v: cube(v) * np.nan):
        with pytest.raises(ToleranceError, match="Krylov-block residual"):
            evolve_krylov(broken, KRYLOV_TIMES, corner)


def test_unitary_eigensystem_orthonormal_even_when_degenerate():
    rng = np.random.default_rng(21)
    # permutation matrices have highly degenerate spectra
    for _ in range(40):
        n = int(rng.integers(3, 10))
        perm = rng.permutation(n)
        u = np.eye(n)[perm].astype(complex)
        values, vectors = unitary_eigensystem(u)
        assert np.max(np.abs(np.abs(values) - 1.0)) < 1e-10
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(n))) < 1e-8
        recon = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(recon - u)) < 1e-8


def test_unitary_eigensystem_random():
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = int(rng.integers(2, 16))
        u = random_unitary(n, rng)
        assert unitarity_defect(u) < 1e-12
        values, vectors = unitary_eigensystem(u)
        recon = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(recon - u)) < 1e-8


def test_unitary_eigensystem_rejects_non_unitary():
    with pytest.raises(ValueError):
        unitary_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_defect_measures():
    assert hermiticity_defect(SIGMA_X) == 0.0
    assert unitarity_defect(np.eye(3)) == 0.0
    assert hermiticity_defect(np.array([[0.0, 1.0], [0.5, 0.0]])) == 0.5
    with np.errstate(invalid="ignore"):
        for bad in (np.nan, np.inf):
            m = np.array([[0.0, bad], [bad, 0.0]])
            assert hermiticity_defect(m) == np.inf
            assert unitarity_defect(m) == np.inf


def _off_diagonal(x):
    return np.array([[0.5, x], [x, 0.5]])


# every input gate built on a defect measure or a `not x <= tol` test
NON_FINITE_PROBES = {
    "Coin": lambda x: coined.Coin(2, _off_diagonal(x)),
    "sqw_build": lambda x: scattering.sqw_build(
        graphs.cycle(4), scattering.reflective_coin(x)),
    "Hamiltonian": lambda x: ctqw.Hamiltonian(_off_diagonal(x)),
    "eig_hermitian": lambda x: eig_hermitian(_off_diagonal(x)),
    "unitary_eigensystem": lambda x: unitary_eigensystem(_off_diagonal(x)),
    "discriminant": lambda x: szegedy.discriminant(_off_diagonal(x)),
    "DensityState": lambda x: coined.DensityState((2, 1), _off_diagonal(x)),
    "check_distribution": lambda x: check_distribution([x, 0.5]),
}


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("probe", sorted(NON_FINITE_PROBES))
def test_non_finite_input_is_rejected(probe, x):
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        NON_FINITE_PROBES[probe](x)


def test_phase_grouping_clusters_equal_values():
    values = np.array(
        [1.0, np.exp(1j * 1e-12), -1.0, 1j, np.exp(1j * (np.pi - 1e-13)) * -1.0 * -1.0]
    )
    groups = group_indices_by_phase(values, tol=1e-8)
    sizes = sorted(len(g) for g in groups)
    assert sizes == [1, 2, 2]


def test_phase_grouping_across_branch_cut():
    values = np.array([np.exp(1j * (np.pi - 1e-10)), np.exp(-1j * (np.pi - 1e-10))])
    groups = group_indices_by_phase(values, tol=1e-8)
    assert len(groups) == 1


def test_energy_grouping_sorts_along_the_line():
    # all three share angle 0, so only sorting by value brings 0 and 1e-12
    # next to each other
    groups = group_indices_by_phase(np.array([0.0, 5.0, 1e-12]), tol=1e-8)
    assert sorted(sorted(g.tolist()) for g in groups) == [[0, 2], [1]]
    assert len(group_indices_by_phase(np.array([-1.0, 1.0]))) == 2


def test_dephasing_keeps_only_same_level_interference():
    psi = np.array([1.0, 0.0])
    values, vectors = eig_hermitian(SIGMA_X)
    probs = dephased_probabilities(vectors, group_indices_by_phase(values), psi)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)
    values, vectors = eig_hermitian(np.zeros((2, 2)))
    probs = dephased_probabilities(vectors, group_indices_by_phase(values), psi)
    assert np.allclose(probs, [1.0, 0.0], atol=1e-12)
