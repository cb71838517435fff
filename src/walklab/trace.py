"""The one numerical gate shared by the library and the experiment runner.

Every check on a computed value goes through :func:`check`; a failure is a
:class:`ToleranceError`, which the experiment runner reports as exit 3.
"""

import math

__all__ = ["ToleranceError", "check"]


class ToleranceError(RuntimeError):
    """A computed value is over its budget or not finite."""


def check(what, value, budget):
    """Raise ToleranceError unless ``value`` is finite and ``<= budget``."""
    if not (math.isfinite(value) and value <= budget):
        raise ToleranceError(
            f"{what} off by {value:.2e} (budget {budget:.0e})")
