"""Search iteration, query ledger, and fixed-point composition."""

import cmath
import math

import numpy as np
import pytest
from helpers import composed_fixed_point, multiplied_plane_grover_run

from walklab import grover as gr


class TestOracle:
    def test_reflect_flips_marked_signs(self):
        o = gr.Oracle(4, {1, 3})
        out = o.reflect(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(out, [1.0, -2.0, 3.0, -4.0])

    def test_reflect_flips_in_place_and_counts_one_query(self):
        o = gr.Oracle(5, {0, 3})
        state = np.array([1.0, 2.0, -3.0, 4.0, 5.0])
        assert o.reflect(state) is state
        assert state.tolist() == [-1.0, 2.0, -3.0, -4.0, 5.0]
        assert o.queries == 1

    def test_ledger_counts_every_application(self):
        o = gr.Oracle(8, {0})
        st = np.ones(8) / math.sqrt(8)
        st = o.reflect(st)
        st = o.phase(math.pi / 3, st)
        st = o.phase(-math.pi / 3, st)
        assert o.queries == 3

    def test_success_sums_marked_mass(self):
        o = gr.Oracle(4, {0, 2})
        assert abs(o.success(np.array([0.5, 0.5, 0.5, 0.5])) - 0.5) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            gr.Oracle(4, set())
        with pytest.raises(ValueError, match="covers everything"):
            gr.Oracle(4, {0, 1, 2, 3})
        with pytest.raises(ValueError, match="out of range"):
            gr.Oracle(4, {7})


class TestGroverRun:
    def test_four_elements_single_query(self):
        res = gr.grover_run(4, {2})
        assert abs(res.success - 1.0) < 1e-12
        assert res.queries == 1

    def test_thousand_elements(self):
        res = gr.grover_run(1024, {511})
        assert res.queries == 25
        assert res.success >= 0.999

    def test_zero_steps_gives_uniform_mass(self):
        res = gr.grover_run(16, {3, 5, 8}, steps=0)
        assert abs(res.success - 3 / 16) < 1e-15
        assert res.queries == 0

    def test_auto_close_to_quarter_pi_estimate(self):
        for n, k in [(256, 1), (4096, 1), (900, 9)]:
            res = gr.grover_run(n, set(range(k)), steps=0)
            auto = gr.grover_run(n, set(range(k))).queries
            estimate = int(math.floor(math.pi / 4 * math.sqrt(n / k) + 0.5))
            assert abs(auto - estimate) <= 2

    def test_quarter_marked_found_in_one_step(self):
        res = gr.grover_run(64, set(range(16)))
        assert res.queries == 1
        assert abs(res.success - 1.0) < 1e-12

    def test_success_from_state_vector(self):
        res = gr.grover_run(32, {4}, steps=3)
        assert abs(res.success - np.abs(res.state[4]) ** 2) < 1e-15


class TestTrajectory:
    def test_closed_form_rotation(self):
        tr = gr.grover_run(64, {5}, steps=20)
        theta = gr.rotation_angle(64, 1)
        assert tr.components.shape == (21, 2)
        for j in range(21):
            angle = (2 * j + 1) * theta / 2
            assert abs(tr.components[j, 0] - math.sin(angle)) < 1e-12
            assert abs(tr.components[j, 1] - math.cos(angle)) < 1e-12

    def test_stays_in_the_plane(self):
        tr = gr.grover_run(128, {1, 2, 3}, steps=15)
        assert tr.leakage <= 1e-12
        norms = (tr.components ** 2).sum(axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    @pytest.mark.parametrize("n, marked", [
        (16, [3]), (1000, range(0, 1000, 3)), (4096, range(4000))])
    def test_in_place_run_keeps_every_byte(self, n, marked):
        # the masked reflection, the diffusion into a new array and the
        # leakage through three temporaries, written out in full
        res = gr.grover_run(n, marked)
        mask = np.zeros(n, dtype=bool)
        mask[list(marked)] = True
        k = int(mask.sum())
        t = np.where(mask, 1.0 / math.sqrt(k), 0.0)
        nv = np.where(mask, 0.0, 1.0 / math.sqrt(n - k))
        state = np.full(n, 1.0 / math.sqrt(n))
        comps = np.empty((res.queries + 1, 2))
        leakage = 0.0
        for j in range(res.queries + 1):
            comps[j] = (t @ state, nv @ state)
            leakage = max(leakage, float(np.linalg.norm(
                state - comps[j, 0] * t - comps[j, 1] * nv)))
            if j < res.queries:
                reflected = state.copy()
                reflected[mask] *= -1
                state = 2.0 * reflected.mean() - reflected
        assert res.state.tobytes() == state.tobytes()
        assert res.components.tobytes() == comps.tobytes()
        assert res.leakage == leakage
        assert res.success == float(np.sum(state[mask] ** 2))

    @pytest.mark.parametrize("n, marked, steps", [
        (2, [0], "auto"), (2, [1], 3), (16, range(15), "auto"),
        (1000, range(999), 7), (1000, [998, 3, 500, 17], "auto"),
        (64, range(0, 64, 5), 20), (65536, [0], "auto"),
        (65536, [7, 40000, 65535], "auto")],
        ids=["n2", "n2-last-marked", "k15", "k999", "scattered",
             "every-fifth", "n65536", "n65536-scattered"])
    def test_run_keeps_every_byte_of_the_multiplied_plane(self, n, marked,
                                                         steps):
        # n = 2 marks half the list, k = n - 1 leaves one unmarked entry
        got = gr.grover_run(n, marked, steps)
        want = multiplied_plane_grover_run(n, marked, steps)
        assert got.state.tobytes() == want.state.tobytes()
        assert got.components.tobytes() == want.components.tobytes()
        for name in ("leakage", "success"):
            assert (np.float64(getattr(got, name)).tobytes()
                    == np.float64(getattr(want, name)).tobytes()), name
        assert got.queries == want.queries

    def test_negative_step_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gr.grover_run(16, {3}, steps=-1)


class TestFixedPoint:
    def test_level_zero_identity_failure(self):
        fp = gr.fixed_point_run(0, 64, set(range(16)))
        assert abs(fp.failure - 0.75) < 1e-15
        assert fp.queries == 0

    def test_failure_cubes_at_each_level(self):
        marked = set(range(16))
        prev = gr.fixed_point_run(0, 64, marked).failure
        for level in range(1, 5):
            cur = gr.fixed_point_run(level, 64, marked).failure
            assert abs(cur - prev ** 3) < 1e-9
            prev = cur

    def test_query_count_closed_form_identity_base(self):
        for level in range(7):
            fp = gr.fixed_point_run(level, 16, {0, 1})
            assert fp.queries == (3 ** level - 1) // 2

    def test_query_count_closed_form_grover_base(self):
        for level in range(7):
            fp = gr.fixed_point_run(level, 16, {0, 1}, base="grover-iterate")
            assert fp.queries == 3 ** level + (3 ** level - 1) // 2

    def test_failure_never_negative_and_follows_the_cubing_law(self):
        # the law falls below the rounding of 1 - success by level 5 at
        # n = 8; the unmarked weight follows it down to about 1e-29
        for n, marked, base in [(8, [0], "identity"), (64, [0], "identity"),
                                (16, [0, 1], "grover-iterate")]:
            f0 = gr.fixed_point_run(0, n, marked, base).failure
            for level in range(9):
                failure = gr.fixed_point_run(level, n, marked, base).failure
                law = f0 ** (3 ** level)
                assert failure >= 0.0, (n, level)
                if law > 1e-300:
                    assert failure == pytest.approx(law, rel=1e-6, abs=1e-24)

    def test_failure_equals_power_of_initial_failure(self):
        n, marked = 64, set(range(16))
        f0 = 1 - len(marked) / n
        for level in range(5):
            fp = gr.fixed_point_run(level, n, marked)
            assert abs(fp.failure - f0 ** (2 * fp.queries + 1)) < 1e-9

    def test_grover_iterate_base_level_zero(self):
        n, k = 60, 10
        fp = gr.fixed_point_run(0, n, set(range(k)), base="grover-iterate")
        theta = gr.rotation_angle(n, k)
        assert abs(fp.failure - (1 - math.sin(3 * theta / 2) ** 2)) < 1e-12

    def test_overshooting_levels_keeps_failure_small(self):
        # unlike the plain iteration, more work never hurts
        failures = [gr.fixed_point_run(lv, 32, set(range(8))).failure
                    for lv in range(5)]
        assert all(b <= a + 1e-12 for a, b in zip(failures, failures[1:]))

    def test_uniform_phase_matches_the_mean_form_byte_for_byte(self):
        rng = np.random.default_rng(24)
        zeros = np.array([complex(re, im) for re in (0.0, -0.0)
                          for im in (0.0, -0.0)])
        for n in (2, 7, 64, 1000):
            state = rng.normal(size=n) + 1j * rng.normal(size=n)
            state[rng.integers(n, size=n // 3 + 1)] = rng.choice(zeros, n // 3 + 1)
            for angle in (math.pi, -math.pi, math.pi / 3, -math.pi / 3, 0.7):
                want = state + ((cmath.exp(1j * angle) - 1.0) * state.mean()
                                * np.ones_like(state))
                got = gr._uniform_phase(angle, state)
                assert got.tobytes() == want.tobytes(), (n, angle)

    @pytest.mark.parametrize("base", ["identity", "grover-iterate"])
    @pytest.mark.parametrize("n, k", [(8, 1), (64, 1), (16, 2), (100, 7),
                                      (1024, 3), (33, 32)])
    def test_levels_are_fresh_runs_of_each_level(self, n, k, base):
        got = gr.fixed_point_levels(7, n, range(k), base)
        assert len(got) == 8
        for level, res in enumerate(got):
            fresh = gr.fixed_point_run(level, n, range(k), base)
            composed = composed_fixed_point(level, n, range(k), base)
            assert (res.failure.hex() == fresh.failure.hex()
                    == composed.failure.hex()), level
            assert res.queries == fresh.queries == composed.queries, level
            if level:
                assert res.queries == 3 * got[level - 1].queries + 1

    def test_validation(self):
        with pytest.raises(ValueError, match="levels"):
            gr.fixed_point_run(-1, 8, {0})
        with pytest.raises(ValueError, match="unknown base"):
            gr.fixed_point_run(1, 8, {0}, base="magic")
        with pytest.raises(ValueError, match="levels"):
            gr.fixed_point_levels(-1, 8, {0})


class TestRandomizedProperties:
    def test_success_formula_and_ledger(self):
        rng = np.random.default_rng(424242)
        for _ in range(110):
            n = int(rng.integers(4, 4097))
            k = int(rng.integers(1, n // 2 + 1))
            m = int(rng.integers(0, 25))
            marked = set(map(int, rng.choice(n, size=k, replace=False)))
            res = gr.grover_run(n, marked, steps=m)
            theta = gr.rotation_angle(n, k)
            assert abs(res.success - math.sin((2 * m + 1) * theta / 2) ** 2) < 1e-12
            assert res.queries == m
