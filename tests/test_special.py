import math
from fractions import Fraction
from itertools import product

import pytest

from walklab.special import catalan, catalan_square_tail_sum


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


def test_catalan_growth_lower_bound():
    # C_{k+1} >= (2 sqrt(pi)/e^2) 4^k / (k+1)^{3/2}
    c = 2.0 * math.sqrt(math.pi) / math.e**2
    for k in range(0, 61):
        assert catalan(k + 1) >= c * 4.0**k / (k + 1) ** 1.5
