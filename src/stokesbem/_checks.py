"""The one rule for the counts and lengths that set a discretization.

A count (elements, steps, lattice points, an order, a step index) is a
Python or NumPy integer in range; a float, even an integral one, is
refused and never truncated.  A length (a radius, a time step, a
spacing) is a finite positive number.  Both raise a ``ValueError`` that
names the quantity.
"""

import math
import operator


def count(name: str, value, minimum: int, maximum: float = math.inf) -> int:
    """``value`` as an ``int``, if it is an integer in ``minimum..maximum``."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not minimum <= n <= maximum:
        bounds = (f"at least {minimum}" if maximum == math.inf
                  else f"in {minimum}..{maximum}")
        raise ValueError(f"{name} must be {bounds}, got {n}")
    return n


def length(name: str, value: float) -> float:
    """``value`` itself, if it is a finite positive number."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value
