import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from walklab.special import (
    catalan,
    catalan_asymptotic,
    catalan_generating_function,
    catalan_square_tail_sum,
    stationary_phase_p2,
)


def test_catalan_first_values():
    assert catalan(0) == 1
    assert catalan(1) == 1
    assert catalan(2) == 2


def test_catalan_matches_factorial_formula():
    # Independent route: (2n)! / (n! (n+1)!)
    for n in range(0, 25):
        expected = math.factorial(2 * n) // (math.factorial(n) * math.factorial(n + 1))
        assert catalan(n) == expected
    assert catalan(3) == 5


def test_catalan_counts_dyck_paths():
    # Brute force: lattice paths of 2n steps +-1 that never go below zero
    # and end at zero.
    n = 4
    count = 0
    for steps in product((1, -1), repeat=2 * n):
        height = 0
        ok = True
        for s in steps:
            height += s
            if height < 0:
                ok = False
                break
        if ok and height == 0:
            count += 1
    assert count == 14
    assert catalan(4) == count


def test_catalan_negative_rejected():
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_recurrence_exact():
    # (n+2) C_{n+1} = 2(2n+1) C_n, exactly in integers.
    for n in range(0, 31):
        assert (n + 2) * catalan(n + 1) == 2 * (2 * n + 1) * catalan(n)


def test_catalan_square_sum_closed_form():
    # sum_{k<=M} C_k^2/16^k = (16M^3+36M^2+24M+5) C_M^2/16^M - 4, exactly.
    for m in range(0, 21):
        lhs = sum(Fraction(catalan(k) ** 2, 16**k) for k in range(m + 1))
        cm = catalan(m)
        rhs = Fraction((16 * m**3 + 36 * m**2 + 24 * m + 5) * cm * cm, 16**m) - 4
        assert lhs == rhs
        assert abs(catalan_square_tail_sum(m) - float(rhs)) <= 1e-12


def test_catalan_square_sum_limit():
    # The series tends to 16/pi - 4; the M=60 partial sum is already close
    # (tail ~ 16/(2 pi M^2)).
    assert abs(catalan_square_tail_sum(60) - (16.0 / math.pi - 4.0)) < 1e-2


def test_catalan_asymptotic_ratio():
    assert abs(catalan(200) / catalan_asymptotic(200) - 1.0) < 0.02
    # and the approach is from below, improving with n
    r20 = catalan(20) / catalan_asymptotic(20)
    r200 = catalan(200) / catalan_asymptotic(200)
    assert abs(r200 - 1.0) < abs(r20 - 1.0)


def test_catalan_growth_lower_bound():
    # C_{k+1} >= (2 sqrt(pi)/e^2) 4^k / (k+1)^{3/2}
    c = 2.0 * math.sqrt(math.pi) / math.e**2
    for k in range(0, 61):
        assert catalan(k + 1) >= c * 4.0**k / (k + 1) ** 1.5


def test_catalan_generating_function_fixed_point():
    for x in (-0.3, -0.05, 0.0, 0.1, 0.2, 0.25):
        c = catalan_generating_function(x)
        assert abs(c - (1.0 + x * c * c)) < 1e-12
    with pytest.raises(ValueError):
        catalan_generating_function(0.26)


def test_catalan_generating_function_is_series_sum():
    x = 0.2
    partial = sum(catalan(n) * x**n for n in range(0, 60))
    # tail bounded by sum of 4^n x^n / (n^{3/2} sqrt(pi)) from 60 on
    tail = sum(
        (4.0 * x) ** n / (n**1.5 * math.sqrt(math.pi)) for n in range(60, 400)
    )
    assert abs(catalan_generating_function(x) - partial) <= tail + 1e-12


def test_stationary_phase_zero_prefactor():
    assert stationary_phase_p2(0.0, 1.3, -2.0, 50) == 0


def test_stationary_phase_amplitude_scaling():
    v1 = stationary_phase_p2(0.7, 0.4, 1.1, 25)
    v4 = stationary_phase_p2(0.7, 0.4, 1.1, 100)
    assert abs(v4) / abs(v1) == pytest.approx(0.5, abs=1e-12)


def test_stationary_phase_rejects_degenerate():
    with pytest.raises(ValueError):
        stationary_phase_p2(1.0, 0.0, 0.0, 10)
    with pytest.raises(ValueError):
        stationary_phase_p2(1.0, 0.0, 1.0, 0)


def _alpha_integral(m, x):
    # (1/2pi) Int_{-pi}^{pi} exp(i(kx - m w_k)) dk with sin(w_k) = sin(k)/sqrt(2);
    # the integrand is smooth and periodic, so the trapezoid rule converges
    # spectrally.
    k = np.linspace(-np.pi, np.pi, 1 << 14, endpoint=False)
    w = np.arcsin(np.sin(k) / np.sqrt(2.0))
    vals = np.exp(1j * (k * x - m * w))
    return complex(np.mean(vals))


def _alpha_asymptotic(m):
    # Stationary points of -w_k sit at k = +-pi/2 where the phase value is
    # -+pi/4 and the curvature is +-1; with the 1/(2pi) measure the
    # prefactor per point works out to 1/pi.
    a = stationary_phase_p2(1.0 / math.pi, -math.pi / 4.0, 1.0, m)
    b = stationary_phase_p2(1.0 / math.pi, math.pi / 4.0, -1.0, m)
    return a + b


def test_stationary_phase_matches_quadrature_at_origin():
    m = 100
    exact = _alpha_integral(m, 0)
    approx = _alpha_asymptotic(m)
    assert abs(exact.imag) < 1e-12
    assert abs(exact - approx) < 5e-3


def test_stationary_phase_error_decays_like_m_to_three_halves():
    def band_err(center):
        return max(
            abs(_alpha_integral(m, 0) - _alpha_asymptotic(m))
            for m in range(center, center + 8)
        )

    e100 = band_err(96)
    e400 = band_err(396)
    assert e400 < 0.35 * e100
