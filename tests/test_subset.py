import itertools
import math

import numpy as np
import pytest
from helpers import (whole_state_coin, whole_state_phase, whole_state_runs,
                     whole_state_shift)

from walklab import scattering as sc
from walklab import subset as sb


def singleton_marked(w):
    f = lambda x: 1 if x == w else 0
    prop = lambda pairs: pairs[0][1] == 1
    return f, prop


def collision_pair():
    f = lambda x: x % 5
    prop = lambda pairs: pairs[0][1] == pairs[1][1]
    return f, prop


class TestBasisAndBookkeeping:
    def test_collision_instance_dimensions(self):
        f, prop = collision_pair()
        walk = sb.SubsetWalk(10, 5, f, prop, 2)
        assert walk.left_dim == 1260
        assert walk.right_dim == 1260
        assert walk.dim == 2520

    @pytest.mark.parametrize("n, q, k, case", [
        (6, 3, 2, "collision"), (10, 5, 2, "collision"), (7, 3, 1, "marked"),
        (8, 4, 3, "sum"), (5, 4, 4, "sum"), (9, 2, 2, "none"),
        (6, 2, 1, "all"), (12, 6, 2, "collision")])
    def test_good_sets_match_every_k_subset_of_every_q_set(self, n, q, k, case):
        f, prop = {
            "collision": collision_pair(),
            "marked": singleton_marked(4),
            "sum": (lambda x: x % 3, lambda pairs: sum(v for _, v in pairs) >= 4),
            "none": (lambda x: x, lambda pairs: False),
            "all": (lambda x: x, lambda pairs: True),
        }[case]
        walk = sb.SubsetWalk(n, q, f, prop, k)
        direct = [any(prop(tuple((x, f(x)) for x in sub))
                      for sub in itertools.combinations(s, k))
                  for s in walk.left_sets]
        assert walk.good_sets.tolist() == direct

    def test_left_dim_formula(self):
        f, prop = singleton_marked(0)
        for n, q in [(6, 2), (8, 3), (9, 4)]:
            walk = sb.SubsetWalk(n, q, f, prop, 1)
            assert walk.left_dim == math.comb(n, q) * (n - q)
            assert walk.right_dim == math.comb(n, q + 1) * (q + 1)

    def test_query_ledger_exact(self):
        f, prop = collision_pair()
        for tau1, tau2 in [(1, 1), (2, 3), (3, 2), (1, 0)]:
            res = sb.subset_walk_run(10, 5, 2, f, prop, schedule=(tau1, tau2))
            assert res.queries == 5 + 2 * tau1 * tau2

    def test_result_carries_the_walk_that_ran(self):
        f, prop = collision_pair()
        res = sb.subset_walk_run(8, 4, 2, f, prop, schedule=(2, 3))
        assert isinstance(res.walk, sb.SubsetWalk)
        assert res.walk.success(res.walk.run(2, 3)) == res.success
        assert res.walk.queries == res.queries

    def test_auto_schedule_values(self):
        f, prop = collision_pair()
        res = sb.subset_walk_run(10, 5, 2, f, prop)
        assert res.tau1 == round(math.pi / 2 * math.sqrt(5 / 2))
        assert res.tau2 == round(math.pi / 4 * (10 / 5))
        assert res.queries == 5 + 2 * res.tau1 * res.tau2

    def test_one_walk_serves_every_schedule(self):
        f, prop = collision_pair()
        walk = sb.SubsetWalk(9, 4, f, prop, 2)
        first = walk.run(2, 3)
        assert walk.queries == 4 + 2 * 2 * 3
        walk.run(1, 1)
        assert walk.queries == 4 + 2 * 1 * 1
        again = walk.run(2, 3)
        assert np.array_equal(again, first)
        assert walk.queries == 4 + 2 * 2 * 3

    def test_runs_yields_each_prefix_run(self):
        # every state the trajectory yields is run(tau1, t2), byte for
        # byte, and stays so after later steps, with run's ledger
        f, prop = collision_pair()
        for n, q, tau1 in [(6, 2, 1), (8, 4, 2), (9, 4, 3), (7, 3, 0)]:
            walk = sb.SubsetWalk(n, q, f, prop, 2)
            got = [(state, walk.queries) for state in walk.runs(tau1, 5)]
            assert len(got) == 6
            for t2, (state, queries) in enumerate(got):
                assert state.tobytes() == walk.run(tau1, t2).tobytes()
                assert queries == walk.queries == q + 2 * tau1 * t2

    def test_validation(self):
        f, prop = singleton_marked(0)
        with pytest.raises(ValueError, match="too large"):
            sb.SubsetWalk(15, 2, f, prop, 1)
        with pytest.raises(ValueError, match="q"):
            sb.SubsetWalk(8, 0, f, prop, 1)
        with pytest.raises(ValueError, match="q"):
            sb.SubsetWalk(8, 8, f, prop, 1)
        with pytest.raises(ValueError, match="k"):
            sb.SubsetWalk(8, 3, f, prop, 4)
        with pytest.raises(ValueError, match="k"):
            sb.SubsetWalk(8, 3, f, prop, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            sb.subset_walk_run(8, 3, 2, f, prop, schedule=(-1, 2))


class TestEvolutionStructure:
    def test_even_rounds_end_on_subset_side(self):
        f, prop = collision_pair()
        walk = sb.SubsetWalk(10, 5, f, prop, 2)
        state = walk.run(2, 2)
        assert walk.right_mass(state) == 0.0

    def test_odd_translation_count_sits_on_far_side(self):
        f, prop = singleton_marked(1)
        walk = sb.SubsetWalk(7, 2, f, prop, 1)
        state = whole_state_shift(walk, whole_state_coin(
            walk, walk.initial_state()))
        assert np.allclose(state[: walk.left_dim], 0.0)
        assert walk.right_mass(state) == pytest.approx(1.0, abs=1e-12)

    def test_full_step_operator_unitary(self):
        f, prop = singleton_marked(2)
        walk = sb.SubsetWalk(8, 3, f, prop, 1)
        cols = []
        for i in range(walk.dim):
            e = np.zeros(walk.dim)
            e[i] = 1.0
            s = whole_state_phase(walk, e)
            for _ in range(2):
                s = whole_state_shift(walk, whole_state_coin(walk, s))
            cols.append(s)
        u = np.column_stack(cols)
        assert np.max(np.abs(u.T @ u - np.eye(walk.dim))) < 1e-8

    def test_unmarked_walk_fixes_uniform_state(self):
        f = lambda x: 0
        prop = lambda pairs: False
        walk = sb.SubsetWalk(9, 3, f, prop, 2)
        state = walk.initial_state()
        out = state.copy()
        for _ in range(4):
            out = whole_state_shift(walk, whole_state_coin(walk, out))
        assert np.max(np.abs(out - state)) < 1e-12

    def test_norm_preserved_through_run(self):
        f, prop = collision_pair()
        walk = sb.SubsetWalk(10, 5, f, prop, 2)
        state = walk.run(2, 3)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


# q from 1 to n - 1 at every n up to 9, then the ends and the middle of
# n = 12 and n = 14; k = 1 and k = q
_SIDE_CASES = ([(n, q, k) for n in range(2, 10) for q in range(1, n)
                for k in sorted({1, q})]
               + [(n, q, k) for n in (12, 14) for q in (1, n // 2, n - 1)
                  for k in sorted({1, min(q, 3)})])


class TestOneSideAtATime:
    """The walk steps only the side its amplitudes are on; the whole arc
    state, coined and shifted on both sides, is the reference."""

    @pytest.mark.parametrize("n, q, k", _SIDE_CASES)
    def test_runs_keep_every_byte_of_the_whole_state_walk(self, n, q, k):
        f = lambda x: x % 3
        prop = lambda pairs: len({v for _, v in pairs}) == 1
        walk = sb.SubsetWalk(n, q, f, prop, k)
        for tau1, tau2 in [(1, 3), (2, 2)]:
            got = [(state.tobytes(), walk.queries)
                   for state in walk.runs(tau1, tau2)]
            want = [(state.tobytes(), queries)
                    for state, queries in whole_state_runs(walk, tau1, tau2)]
            assert got == want

    @pytest.mark.parametrize("n, q", [(5, 1), (7, 3), (8, 6), (9, 8)])
    def test_side_methods_are_the_whole_state_ones_on_one_side(self, n, q):
        f, prop = singleton_marked(0)
        walk = sb.SubsetWalk(n, q, f, prop, 1)
        rng = np.random.default_rng(n * 10 + q)
        half = walk.left_dim
        for side, here, there in [(0, slice(None, half), slice(half, None)),
                                  (1, slice(half, None), slice(None, half))]:
            v = rng.normal(size=half)
            whole = np.zeros(walk.dim)
            whole[here] = v
            coined = whole_state_coin(walk, whole)
            assert walk.coin(v, side).tobytes() == coined[here].tobytes()
            walk.queries = 0
            moved = walk.shift(v, side)
            assert walk.queries == 1
            shifted = whole_state_shift(walk, whole)
            assert moved.tobytes() == shifted[there].tobytes()
            assert not shifted[here].any()
        v = rng.normal(size=half)
        whole = np.concatenate([v, np.zeros(half)])
        assert (walk.phase(v).tobytes()
                == whole_state_phase(walk, whole)[:half].tobytes())


class TestGroverByWalkReduction:
    """With singleton sets the walk is search on the complete graph.

    Two translations wrapped around Grover pointer coins scatter each
    arriving amplitude across the outgoing edges, and the phase flip on
    marked singletons supplies the back-reflection sign.  Inside the
    permutation-symmetric subspace this is step for step the reflective
    marked-vertex walk, so the success curve must agree exactly with the
    into-marked edge-class mass of that reduction.
    """

    def _edge_class_curve(self, n, steps):
        red = sc.reduce_complete_graph(n, 1, math.pi)
        sizes = {"um": n - 1, "mu": n - 1, "uu": (n - 1) * (n - 2)}
        state = np.array(
            [math.sqrt(sizes[l] / (n * (n - 1))) for l in red.labels],
            dtype=complex)
        into = red.labels.index("um")
        curve = []
        for _ in range(steps):
            curve.append(abs(state[into]) ** 2)
            state = red.reduced @ state
        return curve

    @pytest.mark.parametrize("n", [8, 12])
    def test_success_matches_edge_class_mass(self, n):
        f, prop = singleton_marked(3)
        reference = self._edge_class_curve(n, 13)
        for m, want in enumerate(reference):
            res = sb.subset_walk_run(n, 1, 1, f, prop, schedule=(1, m))
            assert res.success == pytest.approx(want, abs=1e-12)

    def test_marked_element_identity_is_irrelevant(self):
        curves = []
        for w in (0, 5, 9):
            f, prop = singleton_marked(w)
            curves.append([
                sb.subset_walk_run(10, 1, 1, f, prop, schedule=(1, m)).success
                for m in range(8)])
        assert np.allclose(curves[0], curves[1], atol=1e-13)
        assert np.allclose(curves[0], curves[2], atol=1e-13)

    def test_peak_near_quarter_period(self):
        n = 12
        f, prop = singleton_marked(0)
        theta = math.atan(math.sqrt(2 * n - 3) / (n - 2))
        peak = round(math.pi / (2 * theta))
        res = sb.subset_walk_run(n, 1, 1, f, prop, schedule=(1, peak))
        assert res.success > 0.55


class TestCollisionSearch:
    def test_auto_schedule_finds_collision(self):
        f, prop = collision_pair()
        res = sb.subset_walk_run(10, 5, 2, f, prop)
        assert res.success >= 0.5
        assert res.best_success >= res.success
        assert abs(res.best_tau1 - res.tau1) <= 2
        assert abs(res.best_tau2 - res.tau2) <= 2

    def test_no_collision_success_exactly_zero(self):
        f = lambda x: x
        prop = lambda pairs: pairs[0][1] == pairs[1][1]
        res = sb.subset_walk_run(10, 5, 2, f, prop, schedule=(2, 3))
        assert res.success == 0.0

    def test_everything_collides_success_exactly_one(self):
        f = lambda x: 7
        prop = lambda pairs: pairs[0][1] == pairs[1][1]
        res = sb.subset_walk_run(8, 4, 2, f, prop, schedule=(1, 2))
        assert res.success == pytest.approx(1.0, abs=1e-12)

    def test_success_against_independent_ground_truth(self):
        f, prop = collision_pair()
        walk = sb.SubsetWalk(9, 4, f, prop, 2)
        state = walk.run(2, 2)
        total = 0.0
        for si, s in enumerate(walk.left_sets):
            good = any(f(a) == f(b) for a, b in itertools.combinations(s, 2))
            if good:
                lo = si * (9 - 4)
                total += float(np.sum(np.abs(state[lo : lo + 5]) ** 2))
        assert walk.success(state) == pytest.approx(total, abs=1e-13)


class TestCostModel:
    def test_subset_k2_balanced_exponent(self):
        est = sb.cost_model(2, 2 / 3, "subset")
        assert est.exponent == pytest.approx(2 / 3, abs=1e-12)

    def test_subset_k1_flat_below_half(self):
        for mu in (0.0, 0.1, 0.25, 0.4, 0.5):
            assert sb.cost_model(1, mu, "subset").exponent == pytest.approx(0.5)
        assert sb.cost_model(1, 0.6, "subset").exponent == pytest.approx(0.6)

    def test_optimal_exponents(self):
        assert sb.optimal_exponent(1, "subset") == pytest.approx(0.5)
        assert sb.optimal_exponent(2, "subset") == pytest.approx(2 / 3)
        assert sb.optimal_exponent(3, "subset") == pytest.approx(3 / 4)
        assert sb.optimal_exponent(2, "clique") == pytest.approx(4 / 3)
        assert sb.optimal_exponent(3, "recursive_clique") == pytest.approx(1.3)
        assert sb.optimal_exponent(4, "recursive_clique") == pytest.approx(1.5)
        assert sb.optimal_exponent(5, "recursive_clique") == pytest.approx(1.6)

    @pytest.mark.parametrize("variant,k", [
        ("subset", 2), ("subset", 3), ("subset", 4),
        ("clique", 3), ("clique", 4),
        ("recursive_clique", 3), ("recursive_clique", 4),
        ("recursive_clique", 5),
    ])
    def test_grid_minimum_matches_closed_form(self, variant, k):
        grid = np.linspace(0.0, 1.0, 2001)
        best = min(sb.cost_model(k, mu, variant).exponent for mu in grid)
        assert best == pytest.approx(sb.optimal_exponent(k, variant), abs=5e-4)

    def test_clique_k2_grover_on_edges_wins(self):
        # the balanced schedule gives N^{4/3} but walking is pointless
        # for a single edge: plain Grover over all pairs costs N
        assert sb.cost_model(2, 2 / 3, "clique").exponent == pytest.approx(4 / 3)
        grid = np.linspace(0.0, 1.0, 2001)
        best = min(sb.cost_model(2, mu, "clique").exponent for mu in grid)
        assert best == pytest.approx(1.0, abs=5e-4)

    def test_numeric_cost_tracks_exponent(self):
        n = 10 ** 8
        good = sb.cost_model(2, 2 / 3, "subset", n=n).cost
        bad = sb.cost_model(2, 0.2, "subset", n=n).cost
        assert good < bad
        ratio = sb.cost_model(2, 2 / 3, "subset", n=4 * n).cost / good
        assert ratio == pytest.approx(4 ** (2 / 3), rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="variant"):
            sb.cost_model(2, 0.5, "tree")
        with pytest.raises(ValueError, match="variant"):
            sb.optimal_exponent(2, "tree")
        with pytest.raises(ValueError, match="k >= 3"):
            sb.optimal_exponent(2, "recursive_clique")
        with pytest.raises(ValueError, match="mu"):
            sb.cost_model(2, 1.5, "subset")
        with pytest.raises(ValueError, match="k"):
            sb.cost_model(0, 0.5, "subset")

    @pytest.mark.parametrize("variant", ["subset", "clique",
                                         "recursive_clique"])
    def test_array_mu_matches_scalar_calls(self, variant):
        mus = np.linspace(0.0, 1.0, 401)
        for k in range(1, 6):
            got = sb.cost_model(k, mus, variant).exponent
            want = [sb.cost_model(k, float(mu), variant).exponent
                    for mu in mus]
            assert got.shape == mus.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [1.5, np.nan, -0.1])
    def test_array_mu_out_of_range(self, bad):
        with pytest.raises(ValueError, match="mu"):
            sb.cost_model(2, np.array([0.0, 0.5, bad]), "subset")
        with pytest.raises(ValueError, match="mu"):
            sb.cost_model(2, bad, "subset")


class TestRandomizedProperties:
    def test_random_instances_conserve_and_account(self):
        rng = np.random.default_rng(20260825)
        cases = 0
        for _ in range(110):
            n = int(rng.integers(4, 9))
            q = int(rng.integers(1, n))
            k = int(rng.integers(1, q + 1))
            values = rng.integers(0, 3, size=n)
            f = lambda x, v=values: int(v[x])
            threshold = int(rng.integers(0, 2 * k + 1))
            prop = lambda pairs, t=threshold: sum(v for _, v in pairs) >= t
            tau1 = int(rng.integers(1, 3))
            tau2 = int(rng.integers(0, 3))
            walk = sb.SubsetWalk(n, q, f, prop, k)
            state = walk.run(tau1, tau2)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)
            assert walk.right_mass(state) == 0.0
            assert walk.queries == q + 2 * tau1 * tau2
            s = walk.success(state)
            assert -1e-12 <= s <= 1.0 + 1e-12
            if not walk.good_sets.any():
                assert s == 0.0
            if walk.good_sets.all():
                assert s == pytest.approx(1.0, abs=1e-10)
            cases += 1
        assert cases >= 100
