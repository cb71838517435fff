"""Two-register chain quantization: construction invariants, the
discriminant spectral correspondence, and marked-vertex bounds."""

import math

import numpy as np
import pytest

from walklab import classical, graphs, linalg, szegedy as sz


def complete_chain(n):
    return (np.ones((n, n)) - np.eye(n)) / (n - 1)


def lazy_complete_chain(n, hold=0.5):
    return hold * np.eye(n) + (1 - hold) * complete_chain(n)


def random_symmetric_chain(n, rng):
    a = rng.uniform(0.1, 1.0, size=(n, n))
    a = (a + a.T) / 2
    for _ in range(500):
        a /= a.sum(axis=1, keepdims=True)
        a = (a + a.T) / 2
        if np.max(np.abs(a.sum(axis=1) - 1)) < 1e-13:
            break
    return a


def nearest_matching_distance(a, b):
    """Largest distance when each value of a takes its nearest unused value
    of b; both multisets must have the same size."""
    assert len(a) == len(b)
    free = list(b)
    worst = 0.0
    for z in a:
        dists = np.abs(np.asarray(free) - z)
        pick = int(np.argmin(dists))
        worst = max(worst, float(dists[pick]))
        free.pop(pick)
    return worst


def compressed_spectrum(p):
    """Walk eigenvalues from the invariant block plus the +1s outside it."""
    _, q, b, _ = sz._invariant_block(p, sz.discriminant(p))
    values, _ = linalg.unitary_eigensystem(b)
    n = p.shape[0]
    return np.concatenate([values, np.ones(n * n - q.shape[1])])


def dense_phi0(p, marked):
    """marked_phase_gap's measured phase from the dense n^2 x n^2 walk."""
    mc = sz.marked_modify(p, marked)
    walk = sz.szegedy_build(mc.p_prime)
    o = np.zeros(p.shape[0])
    o[mc.unmarked] = 1.0 / math.sqrt(len(mc.unmarked))
    values, vectors = linalg.unitary_eigensystem(walk.w)
    overlaps = np.abs(vectors.conj().T @ (walk.isometry @ o))
    phases = np.abs(np.angle(values[overlaps > sz.OVERLAP_TOL]))
    rotating = phases[phases > 1e-9]
    return float(rotating.min()) if rotating.size else 0.0


class TestBuild:
    def test_walk_pieces_are_reflections_and_w_is_unitary(self):
        rng = np.random.default_rng(1)
        walk = sz.szegedy_build(random_symmetric_chain(5, rng))
        eye = np.eye(25)
        assert np.max(np.abs(walk.w.conj().T @ walk.w - eye)) < 1e-8
        assert np.max(np.abs(walk.r1 @ walk.r1 - eye)) < 1e-8
        assert np.max(np.abs(walk.r2 @ walk.r2 - eye)) < 1e-8

    def test_swap_exchanges_registers(self):
        walk = sz.szegedy_build(complete_chain(4))
        v = np.arange(16.0)
        assert np.allclose(v[walk.swap].reshape(4, 4), v.reshape(4, 4).T)

    def test_isometry_identities(self):
        rng = np.random.default_rng(2)
        for p in (complete_chain(5), random_symmetric_chain(6, rng)):
            walk = sz.szegedy_build(p)
            n = p.shape[0]
            t = walk.isometry
            s = np.eye(n * n)[walk.swap]
            pi1 = (walk.r1 + np.eye(n * n)) / 2
            assert np.max(np.abs(t.T @ t - np.eye(n))) < 1e-10
            assert np.max(np.abs(t @ t.T - pi1)) < 1e-10
            assert np.max(np.abs(t.T @ s @ t - sz.discriminant(p))) < 1e-10

    def test_isometry_identities_for_asymmetric_chain(self):
        p = np.array([[0.2, 0.8, 0.0],
                      [0.5, 0.0, 0.5],
                      [0.1, 0.3, 0.6]])
        walk = sz.szegedy_build(p)
        t = walk.isometry
        s = np.eye(9)[walk.swap]
        assert np.max(np.abs(t.T @ t - np.eye(3))) < 1e-10
        assert np.max(np.abs(t.T @ s @ t - sz.discriminant(p))) < 1e-10

    def test_symmetric_chain_keeps_uniform_root_state(self):
        rng = np.random.default_rng(3)
        p = random_symmetric_chain(6, rng)
        walk = sz.szegedy_build(p)
        psi = np.sqrt(p).ravel() / math.sqrt(6)
        assert np.max(np.abs(walk.w @ psi - psi)) < 1e-10
        assert np.max(np.abs(walk.position_distribution(psi) - 1 / 6)) < 1e-12

    def test_uniform_weights_satisfy_detailed_balance(self):
        rng = np.random.default_rng(4)
        p = random_symmetric_chain(5, rng)
        stat = np.full(5, 1 / 5)
        assert np.max(np.abs(p * stat[:, None] - p.T * stat[None, :])) < 1e-12

    def test_deterministic_chain_fixes_diagonal_states(self):
        walk = sz.szegedy_build(np.eye(3))
        for x in range(3):
            e = np.zeros(9)
            e[x * 3 + x] = 1.0
            assert np.allclose(walk.w @ e, e)

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            sz.szegedy_build(np.ones((2, 3)))
        with pytest.raises(ValueError, match="sum to one"):
            sz.szegedy_build(np.full((3, 3), 0.5))
        bad = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="nonnegative"):
            sz.szegedy_build(bad)

    def test_classical_chain_transposes_at_the_boundary(self):
        chain = classical.unbiased_chain(graphs.cycle(5))
        p = sz.from_markov_chain(chain)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
        sz.szegedy_build(p)


class TestSpectrumMap:
    def test_two_state_phases_by_hand(self):
        lam = 1 - 2 * 0.3
        sm = sz.spectrum_map(np.array([[0.7, 0.3], [0.3, 0.7]]))
        assert abs(sorted(sm.d_values)[0] - lam) < 1e-12
        assert abs(max(sm.predicted_phases) - 2 * math.acos(lam)) < 1e-12
        assert sm.pairing_error < 1e-10

    def test_unit_eigenvalue_maps_to_phase_zero(self):
        assert abs(math.acos(1.0)) == 0.0

    def test_residual_spectrum_is_plus_minus_one(self):
        rng = np.random.default_rng(5)
        sm = sz.spectrum_map(random_symmetric_chain(6, rng))
        assert np.max(np.abs(np.abs(sm.residual_values.real) - 1.0)) < 1e-8
        assert np.max(np.abs(sm.residual_values.imag)) < 1e-8

    def test_phase_pair_algebraic_identity(self):
        rng = np.random.default_rng(6)
        p = random_symmetric_chain(7, rng)
        for lam in np.linalg.eigvalsh(sz.discriminant(p)):
            if abs(lam) < 1 - 1e-12:
                z = np.exp(2j * math.acos(lam))
                target = (2 * lam ** 2 - 1) + 2j * lam * math.sqrt(1 - lam ** 2)
                assert abs(z - target) < 1e-12

    def test_six_state_correspondence_against_dense_solver(self):
        rng = np.random.default_rng(7)
        p = random_symmetric_chain(6, rng)
        sm = sz.spectrum_map(p)
        assert sm.pairing_error < 1e-8
        dense, _ = linalg.unitary_eigensystem(sz.szegedy_build(p).w)
        assert nearest_matching_distance(compressed_spectrum(p), dense) < 1e-8

    def test_invariant_plane_relations(self):
        rng = np.random.default_rng(8)
        p = random_symmetric_chain(5, rng)
        walk = sz.szegedy_build(p)
        s = np.eye(25)[walk.swap]
        lams, vecs = np.linalg.eigh(sz.discriminant(p))
        for lam, v in zip(lams, vecs.T):
            tv = walk.isometry @ v
            stv = s @ tv
            assert np.max(np.abs(walk.r1 @ stv - (2 * lam * tv - stv))) < 1e-9
            if abs(lam) > 1 - 1e-9:
                continue  # tv and stv coincide; no plane to close
            basis, _ = np.linalg.qr(np.stack([tv, stv]).T)
            img = walk.w @ basis
            out = img - basis @ (basis.T @ img)
            assert np.max(np.abs(out)) < 1e-9


class TestMarkedChains:
    def test_frozen_rows_are_point_masses(self):
        mc = sz.marked_modify(complete_chain(6), {1, 4})
        for x in (1, 4):
            row = np.zeros(6)
            row[x] = 1.0
            assert np.allclose(mc.p_prime[x], row)
        for x in (0, 2, 3, 5):
            assert np.allclose(mc.p_prime[x], complete_chain(6)[x])

    def test_norm_respects_spectral_bound(self):
        mc = sz.marked_modify(complete_chain(16), {3, 7})
        assert mc.norm <= 1 - mc.delta * (2 / 16) + 1e-12
        lazy = sz.marked_modify(lazy_complete_chain(16), {3, 7})
        assert lazy.delta < 1.0
        assert lazy.norm <= lazy.bound + 1e-12

    def test_everything_marked_means_instant_success(self):
        mc = sz.marked_modify(complete_chain(4), {0, 1, 2, 3})
        assert mc.norm == 0.0
        assert sz.classical_hit_probability(mc, 0) == 1.0

    def test_hit_probability_beats_norm_power_bound(self):
        mc = sz.marked_modify(complete_chain(12), {0})
        for t in (0, 1, 5, 20, 80, 200):
            assert sz.classical_hit_probability(mc, t) >= 1 - mc.norm ** t - 1e-12

    def test_hit_probability_grows_toward_one(self):
        mc = sz.marked_modify(complete_chain(10), {2})
        probs = [sz.classical_hit_probability(mc, t) for t in range(0, 120, 10)]
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.99

    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            sz.marked_modify(np.array([[0.2, 0.8], [0.5, 0.5]]), {0})
        with pytest.raises(ValueError, match="empty"):
            sz.marked_modify(complete_chain(4), set())
        with pytest.raises(ValueError, match="range"):
            sz.marked_modify(complete_chain(4), {9})
        split = np.zeros((4, 4))
        split[0, 1] = split[1, 0] = 1.0
        split[2, 3] = split[3, 2] = 1.0
        with pytest.raises(ValueError, match="cannot reach"):
            sz.marked_modify(split, {0})


class TestPhaseGap:
    def test_gap_beats_bound_on_complete_chains(self):
        for n in (8, 16):
            for k in (1, 2, 4):
                pg = sz.marked_phase_gap(complete_chain(n), set(range(k)))
                assert pg.phi0 >= pg.bound - 1e-12

    def test_gap_on_lazy_chain(self):
        pg = sz.marked_phase_gap(lazy_complete_chain(10), {0, 1})
        assert pg.phi0 >= pg.bound - 1e-12

    def test_nothing_marked_measures_zero_phase(self):
        pg = sz.marked_phase_gap(complete_chain(8), set())
        assert pg.phi0 == 0.0
        assert pg.bound == 0.0
        assert pg.chain is None

    def test_gap_carries_the_marked_chain_it_built(self):
        p = complete_chain(12)
        pg = sz.marked_phase_gap(p, {0, 3})
        mc = sz.marked_modify(p, {0, 3})
        assert pg.chain == mc
        assert np.array_equal(pg.chain.p_prime, mc.p_prime)

    def test_everything_marked_rejected(self):
        with pytest.raises(ValueError, match="unmarked"):
            sz.marked_phase_gap(complete_chain(4), {0, 1, 2, 3})

    def test_input_is_checked_once(self, monkeypatch):
        checked = []
        check = sz._check_row_stochastic
        monkeypatch.setattr(sz, "_check_row_stochastic",
                            lambda p: checked.append(1) or check(p))
        for marked in ({0, 3}, set()):
            checked.clear()
            sz.marked_phase_gap(complete_chain(8), marked)
            assert len(checked) == 1, marked
        with pytest.raises(ValueError, match="sum to one"):
            sz.marked_phase_gap(np.full((3, 3), 0.5), {0})

    def test_doubling_marked_fraction_raises_the_bound(self):
        one = sz.marked_phase_gap(complete_chain(16), {0})
        two = sz.marked_phase_gap(complete_chain(16), {0, 1})
        assert two.bound >= one.bound


class TestRandomizedProperties:
    def test_random_chain_correspondence_and_isometries(self):
        rng = np.random.default_rng(314159)
        for trial in range(110):
            n = int(rng.integers(2, 9))
            p = random_symmetric_chain(n, rng)
            walk = sz.szegedy_build(p)
            t = walk.isometry
            assert np.max(np.abs(t.T @ t - np.eye(n))) < 1e-10
            s = np.eye(n * n)[walk.swap]
            assert np.max(np.abs(t.T @ s @ t - sz.discriminant(p))) < 1e-10
            if trial % 5 == 0:
                sm = sz.spectrum_map(p)
                assert sm.pairing_error < 1e-8
                assert 0.0 <= sm.invariance_residual < 1e-10
                assert len(sm.residual_values) == (n * n
                                                   - len(sm.predicted_phases))
                dense, _ = linalg.unitary_eigensystem(walk.w)
                assert nearest_matching_distance(compressed_spectrum(p),
                                                 dense) < 1e-8

    def test_twenty_random_chains_pair_within_tolerance(self):
        rng = np.random.default_rng(112358)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            sm = sz.spectrum_map(random_symmetric_chain(n, rng))
            assert sm.pairing_error < 1e-8


class TestCompressedSpectrum:
    def test_marked_chains_match_dense_walk(self):
        for p, marked in ((complete_chain(8), {0, 1}),
                          (sz.from_markov_chain(classical.unbiased_chain(
                              graphs.hypercube(3))), {0, 5})):
            p_prime = sz.marked_modify(p, marked).p_prime
            dense, _ = linalg.unitary_eigensystem(sz.szegedy_build(p_prime).w)
            assert nearest_matching_distance(compressed_spectrum(p_prime),
                                             dense) < 1e-8
            pg = sz.marked_phase_gap(p, marked)
            assert abs(pg.phi0 - dense_phi0(p, marked)) < 1e-12
            assert 0.0 <= pg.invariance_residual < 1e-10

    def test_spectra_never_build_the_dense_walk(self, monkeypatch):
        def refuse(p):
            raise AssertionError("dense walk built")
        monkeypatch.setattr(sz, "szegedy_build", refuse)
        assert sz.spectrum_map(complete_chain(6)).pairing_error < 1e-8
        pg = sz.marked_phase_gap(complete_chain(6), {0})
        assert pg.phi0 >= pg.bound - 1e-12

    def test_spectrum_map_validates_and_builds_the_discriminant_once(
            self, monkeypatch):
        calls = []
        for name in ("_check_row_stochastic", "discriminant"):
            def counting(p, inner=getattr(sz, name), name=name):
                calls.append(name)
                return inner(p)
            monkeypatch.setattr(sz, name, counting)
        sz.spectrum_map(complete_chain(6))
        assert sorted(calls) == ["_check_row_stochastic", "discriminant"]
        with pytest.raises(ValueError, match="sum to one"):
            sz.spectrum_map(np.full((3, 3), 0.5))

    def test_broken_invariance_fails_before_the_eigensolve(self, monkeypatch):
        lift = sz._lift

        def refuse(u):
            raise AssertionError("eigensolve reached")
        monkeypatch.setattr(sz._linalg, "unitary_eigensystem", refuse)
        for shift in (1e-6, float("nan")):
            monkeypatch.setattr(
                sz, "_lift", lambda p: (lift(p)[0] + shift, lift(p)[1]))
            with pytest.raises(RuntimeError, match="invariant"):
                sz.spectrum_map(complete_chain(5))
            with pytest.raises(RuntimeError, match="invariant"):
                sz.marked_phase_gap(complete_chain(5), {0})

    def test_complete_48_without_the_dense_walk(self):
        sm = sz.spectrum_map(complete_chain(48))
        assert sm.pairing_error < 1e-8
        assert len(sm.residual_values) == 48 * 48 - 2 * 47
        assert np.max(np.abs(sm.residual_values - 1.0)) < 1e-8
        assert 0.0 <= sm.invariance_residual < 1e-10
