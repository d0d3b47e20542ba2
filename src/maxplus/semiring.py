"""Scalars of the max-plus semiring.

A scalar is a plain float: a finite real, or ``-inf`` for the bottom
element. Addition is ``max``, multiplication is ordinary ``+``; bottom is
neutral for the former and absorbing for the latter, and 0 is the
multiplicative unit. This module only validates input scalars.
"""

from __future__ import annotations

import math

from .errors import ScalarError


def scalar(x: object) -> float:
    """``x`` as a max-plus scalar: an int or a float, finite or ``-inf``."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ScalarError(f"not a max-plus scalar: {x!r}")
    try:
        v = float(x)
    except OverflowError:  # an integer too large for a float
        raise ScalarError(f"max-plus scalar out of float range: {x!r}") from None
    if not v < math.inf:  # NaN and +inf
        raise ScalarError(f"max-plus scalar must be finite or -inf, got {x!r}")
    return v


def weight_from_json(obj: object) -> float:
    """A JSON weight: a number, or the string ``"-inf"`` for bottom."""
    if isinstance(obj, str) and obj.strip().lower() in ("-inf", "-infinity"):
        return -math.inf
    return scalar(obj)
