"""Special functions used across the walk modules.

Catalan numbers (with their generating function and asymptotics) and the
leading-order stationary-phase evaluation of oscillatory integrals.
Everything here is plain 64-bit floating point except the Catalan numbers,
which are exact integers.
"""

import cmath
import math
from fractions import Fraction

__all__ = [
    "catalan",
    "catalan_generating_function",
    "catalan_asymptotic",
    "catalan_square_tail_sum",
    "stationary_phase_p2",
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


def catalan_generating_function(x):
    """Evaluate c(x) = (1 - sqrt(1 - 4x)) / (2x), the Catalan series sum.

    Defined for x <= 1/4; the removable singularity at x = 0 returns c(0) = 1.
    Satisfies c = 1 + x c^2.
    """
    if x > 0.25:
        raise ValueError("generating function converges only for x <= 1/4")
    if x == 0.0:
        return 1.0
    return (1.0 - math.sqrt(1.0 - 4.0 * x)) / (2.0 * x)


def catalan_asymptotic(n):
    """Leading-order growth 4^n / (n^{3/2} sqrt(pi)) of the Catalan numbers."""
    if n <= 0:
        raise ValueError("asymptotic form needs n >= 1")
    return 4.0**n / (n**1.5 * math.sqrt(math.pi))


def catalan_square_tail_sum(m):
    """Partial sum of C_k^2 / 2^{4k} for k = 0 .. m, evaluated exactly.

    The summands decay like 1/(pi k^3), so the series converges to 16/pi - 4.
    Exact rational arithmetic keeps the partial sums reliable well past the
    point where naive floating-point accumulation stops improving.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    total = Fraction(0)
    for k in range(m + 1):
        ck = catalan(k)
        total += Fraction(ck * ck, 16**k)
    return float(total)


def stationary_phase_p2(g_a, phi_a, phi2_a, m):
    """Leading stationary-phase contribution of one interior critical point.

    Evaluates sqrt(pi / (2 m |phi''|)) * g * exp(i (m phi + sgn(phi'') pi/4))
    for an oscillatory integral (1/2pi) Int g(k) exp(i m phi(k)) dk whose
    phase has a nondegenerate stationary point with value ``phi_a`` and
    second derivative ``phi2_a`` where the prefactor takes the value ``g_a``.

    Parameters
    ----------
    g_a, phi_a, phi2_a : float
        Prefactor, phase, and phase curvature at the stationary point.
    m : int
        Large parameter, m >= 1.

    Returns
    -------
    complex
    """
    if phi2_a == 0.0:
        raise ValueError("stationary point must be nondegenerate (phi'' != 0)")
    if m < 1:
        raise ValueError("need m >= 1")
    amp = math.sqrt(math.pi / (2.0 * m * abs(phi2_a))) * g_a
    phase = m * phi_a + math.copysign(math.pi / 4.0, phi2_a)
    return amp * cmath.exp(1j * phase)
