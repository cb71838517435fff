import math

import numpy as np
import pytest

from helpers import check_distribution
from walklab.distributions import dist_stats, entropy, tvd


def test_tvd_identical_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert tvd(p, p) == 0.0


def test_tvd_disjoint_is_two():
    assert tvd([1.0, 0.0], [0.0, 1.0]) == 2.0


def test_tvd_uniform_vs_point():
    # |1/4 - 1| + 3 * 1/4 = 3/2
    p = np.full(4, 0.25)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    assert tvd(p, q) == pytest.approx(1.5, abs=1e-15)


def test_tvd_shape_mismatch():
    with pytest.raises(ValueError):
        tvd([1.0], [0.5, 0.5])


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_tvd_is_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(120):
        n = int(rng.integers(2, 30))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        d = tvd(p, q)
        assert d == tvd(q, p)
        assert 0.0 <= d <= 2.0 + 1e-12
        # the reduction np.sum runs, bit for bit; also on 2-D and list input
        assert same_bits(d, float(np.sum(np.abs(p - q))))
        if n % 2 == 0:
            p2, q2 = p.reshape(2, -1), q.reshape(2, -1)
            assert same_bits(tvd(p2, q2), float(np.sum(np.abs(p2 - q2))))
        assert same_bits(tvd(list(p), list(q)), d)


def test_tvd_propagates_nan():
    assert math.isnan(tvd([math.nan, 0.5], [0.5, 0.5]))
    assert math.isnan(tvd(np.full((2, 2), 0.25), [[0.25, 0.25], [0.25, math.nan]]))


def test_entropy_point_mass():
    assert entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_uniform():
    for m in (1, 4, 100):
        p = np.full(m + 1, 1.0 / (m + 1))
        assert entropy(p) == pytest.approx(math.log(m + 1), abs=1e-12)


def test_entropy_bounds_random():
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(2, 50))
        p = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
        s = entropy(p)
        assert -1e-12 <= s <= math.log(n) + 1e-12


def test_stats_point_mass_all_zero():
    stats = dist_stats([0], [1.0])
    assert stats == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_stats_simple_moments():
    labels = [-1, 1]
    stats = dist_stats(labels, [0.5, 0.5])
    assert stats.mean == 0.0
    assert stats.abs_mean == 1.0
    assert stats.variance == 1.0
    assert stats.skewness == 0.0


def test_stats_skewness_hand_value():
    # {0: 3/4, 2: 1/4}: mean 1/2, raw second moment 1, so the skewness sum
    # is 0.75 (-1/2)^3 + 0.25 (3/2)^3 = 3/4.
    stats = dist_stats([0, 2], [0.75, 0.25])
    assert stats.skewness == pytest.approx(0.75, abs=1e-15)


def test_binomial_walk_entropy_asymptotics():
    # Endpoint distribution of m fair +-1 steps, entropy close to
    # (1 + ln(pi m / 2)) / 2.
    m = 100
    ks = np.arange(m + 1)
    p = np.array([math.comb(m, int(k)) for k in ks], dtype=float) / 2.0**m
    target = 0.5 * (1.0 + math.log(math.pi * m / 2.0))
    assert entropy(p) == pytest.approx(target, rel=0.02)


def test_check_distribution():
    assert check_distribution([0.5, 0.5]) is not None
    with pytest.raises(ValueError):
        check_distribution([0.7, 0.7])
    with pytest.raises(ValueError):
        check_distribution([1.5, -0.5])
    with pytest.raises(ValueError):
        check_distribution(np.eye(2))
