"""Exception hierarchy shared across the library.

``ValidationError`` and its subclasses mark malformed or inconsistent
input (the CLI maps them to exit code 2); ``DenseSetTooCoarseError`` is
a legitimate negative outcome of the dense-set approximation (exit 1).
"""

from __future__ import annotations


class MaxPlusError(Exception):
    """Base class for all library errors."""


class ValidationError(MaxPlusError):
    """Malformed input: bad schema, unknown ids, mismatched spaces."""


class ScalarError(ValidationError, ValueError):
    """Not a max-plus scalar: NaN, +inf, a boolean, a non-number or an int out of float range."""


class UnknownPointError(ValidationError):
    def __init__(self, point_id: str, space_id: str):
        super().__init__(f"unknown point {point_id!r} in space {space_id!r}")
        self.point_id = point_id
        self.space_id = space_id


class SpaceMismatchError(ValidationError):
    """Operands reference different ground spaces."""


class MetricUnavailableError(ValidationError):
    """The ground space carries no coordinates."""


class NoMassError(ValidationError):
    """Measure construction from an empty or all-bottom atom list."""


class NormAxiomError(ValidationError):
    """Atom weights whose maximum is not the unit, without normalization."""


class CoefficientError(ValidationError):
    """Combination coefficients violate the unit constraint."""


class EmptyFiberError(ValidationError):
    """A fiber extreme is undefined on a point outside the map image."""


class LiftImpossibleError(ValidationError):
    """The target measure has an atom outside the image of the map."""


class DenseSetTooCoarseError(MaxPlusError):
    """Dense-set approximation landed outside the requested neighborhood."""

    def __init__(self, worst_discrepancy: float, epsilon: float):
        super().__init__(
            f"dense set too coarse: worst test discrepancy {worst_discrepancy!r}"
            f" is not below epsilon {epsilon!r}"
        )
        self.worst_discrepancy = worst_discrepancy
        self.epsilon = epsilon
