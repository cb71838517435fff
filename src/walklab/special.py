"""Special functions that the tests hold the walks against.

Catalan numbers, as exact integers, and the partial sums of
C_k^2 / 2^{4k} that give the Hadamard walk's cumulative absorption
probability at a boundary, exact up to one final rounding.
"""

import math
from fractions import Fraction

__all__ = [
    "catalan",
    "catalan_square_tail_sum",
]


def catalan(n):
    """Exact n-th Catalan number, C(2n, n) / (n + 1).

    Parameters
    ----------
    n : int
        Nonnegative index.

    Returns
    -------
    int
        ``1, 1, 2, 5, 14, 42, ...`` for ``n = 0, 1, 2, ...``.
    """
    if n < 0:
        raise ValueError("Catalan numbers need n >= 0, got %r" % (n,))
    n = int(n)
    return math.comb(2 * n, n) // (n + 1)


def catalan_square_tail_sum(m):
    """Partial sum of C_k^2 / 2^{4k} for k = 0 .. m, evaluated exactly.

    The summands decay like 1/(pi k^3), so the series converges to 16/pi - 4.
    The sum telescopes to (16m^3 + 36m^2 + 24m + 5) C_m^2 / 16^m - 4, one
    exact rational rounded once, where floating-point accumulation would
    stop improving.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    cm = catalan(m)
    return float(Fraction((16 * m**3 + 36 * m**2 + 24 * m + 5) * cm * cm,
                          16**m) - 4)
