"""Scalars of the max-plus semiring.

An element is either a finite 64-bit real or the distinguished bottom
element ``NEG_INF``. Addition ``oplus`` is max, multiplication ``odot``
is ordinary +; the bottom element is neutral for the former and
absorbing for the latter, and the real number 0 is the multiplicative
unit. The bottom element is kept symbolic (not an IEEE infinity) so the
absorbing law never meets floating-point edge cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from typing import Union

from .errors import ScalarError

Scalar = Union["MaxPlusValue", float, int]


@total_ordering
@dataclass(frozen=True)
class MaxPlusValue:
    """A max-plus scalar: a finite float, or ``value is None`` for bottom.

    A raw ``float("-inf")`` passed to the constructor is folded into the
    bottom element; NaN and +inf are rejected with :class:`ScalarError`.
    """

    value: float | None

    def __post_init__(self) -> None:
        if self.value is None:
            return
        try:
            v = float(self.value)
        except OverflowError:  # an integer too large for a float
            raise ScalarError(f"max-plus scalar out of float range: {self.value!r}") from None
        if v == -math.inf:
            object.__setattr__(self, "value", None)
            return
        if not math.isfinite(v):
            raise ScalarError(f"max-plus scalar must be finite or -inf, got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_bottom(self) -> bool:
        return self.value is None

    def as_float(self) -> float:
        """IEEE view of the scalar; bottom maps to ``float('-inf')``."""
        return -math.inf if self.value is None else self.value

    def oplus(self, other: Scalar) -> MaxPlusValue:
        """Semiring addition: the maximum of the two scalars."""
        b = as_value(other)
        if self.value is None:
            return b
        if b.value is None:
            return self
        return MaxPlusValue(self.value if self.value >= b.value else b.value)

    def odot(self, other: Scalar) -> MaxPlusValue:
        """Semiring multiplication: ordinary addition, absorbed by bottom."""
        b = as_value(other)
        if self.value is None or b.value is None:
            return NEG_INF
        s = self.value + b.value
        if not math.isfinite(s):
            raise OverflowError(f"max-plus product overflow: {self.value!r} + {b.value!r}")
        return MaxPlusValue(s)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, MaxPlusValue):
            return NotImplemented
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def to_json(self) -> float | str:
        return "-inf" if self.value is None else self.value

    @classmethod
    def from_json(cls, obj: object) -> MaxPlusValue:
        if isinstance(obj, str):
            if obj.strip().lower() in ("-inf", "-infinity"):
                return NEG_INF
            raise ScalarError(f"not a max-plus scalar: {obj!r}")
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            return cls(obj)
        raise ScalarError(f"not a max-plus scalar: {obj!r}")

    def __repr__(self) -> str:
        return "MaxPlusValue(-inf)" if self.value is None else f"MaxPlusValue({self.value!r})"

    def __str__(self) -> str:
        return "-inf" if self.value is None else repr(self.value)


NEG_INF = MaxPlusValue(None)
UNIT = MaxPlusValue(0.0)


def as_value(x: Scalar) -> MaxPlusValue:
    """Coerce a raw number (``-inf`` allowed) to a ``MaxPlusValue``."""
    if isinstance(x, MaxPlusValue):
        return x
    if isinstance(x, (int, float)):
        return MaxPlusValue(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a max-plus scalar")
