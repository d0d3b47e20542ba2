"""Weak (pointwise-integration) topology utilities.

A basic neighborhood of a measure is cut out by finitely many test
tables and a strict epsilon on the integral discrepancies. On finite
models every measure has finite support already, so the classical
density statement becomes a constructive one: replace each atom by its
nearest point of a designated dense subset and keep the weights. The
construction either lands strictly inside the requested neighborhood or
fails loudly with the worst discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DenseSetTooCoarseError, ValidationError
from .ground import FunctionTable, _nearest, _require_same_space
from .measures import IdempotentMeasure, _merge


@dataclass(frozen=True)
class WeakNeighborhood:
    """Basic weak neighborhood: center, test tables, strict epsilon."""

    center: IdempotentMeasure
    tests: tuple[FunctionTable, ...]
    epsilon: float
    _center_values: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tests = tuple(self.tests)
        object.__setattr__(self, "tests", tests)
        if not tests:
            raise ValidationError("a weak neighborhood needs at least one test table")
        if not (self.epsilon > 0.0) or not math.isfinite(self.epsilon):
            raise ValidationError(f"epsilon must be a positive real, got {self.epsilon!r}")
        for phi in tests:
            _require_same_space(phi._space, self.center._space, "test table off the center's space")
        object.__setattr__(
            self,
            "_center_values",
            tuple(self.center.integrate(phi) for phi in tests),
        )

    def discrepancies(self, nu: IdempotentMeasure) -> tuple[float, ...]:
        """Per-test absolute integral gaps between ``nu`` and the center."""
        _require_same_space(nu._space, self.center._space, "measure off the neighborhood's space")
        return tuple(
            abs(nu.integrate(phi) - c)
            for phi, c in zip(self.tests, self._center_values)
        )

    def contains(self, nu: IdempotentMeasure) -> bool:
        """Strict membership: every test discrepancy is below epsilon."""
        return all(d < self.epsilon for d in self.discrepancies(nu))


def approximate_on_dense(
    mu: IdempotentMeasure,
    dense: Iterable[str],
    tests: Sequence[FunctionTable],
    epsilon: float,
) -> IdempotentMeasure:
    """Approximate a measure by one supported on a designated dense subset.

    The result is the pushforward of ``mu`` along the retraction onto the
    dense subset that sends each point to its nearest dense point (ties
    to the earliest), taken only on the support: each atom moves, its
    weight rides along unchanged, and atoms that land together merge by
    max. The result must lie strictly inside the weak neighborhood of
    ``mu`` cut out by ``tests`` and ``epsilon`` — otherwise the dense set
    cannot resolve the measure at this epsilon and the call raises,
    reporting the worst test discrepancy.
    """
    space = mu.space
    dense_pos = sorted(map(space.index, dict.fromkeys(dense)))  # an unknown id: the first in input order
    if not dense_pos:
        raise ValidationError("dense subset must be nonempty")
    nbhd = WeakNeighborhood(mu, tuple(tests), epsilon)

    nearest = _nearest(space, dense_pos, [[i] for i in mu._idx.tolist()])
    nu = IdempotentMeasure._trusted(space, *_merge(space, [dense_pos[i] for i, _ in nearest], mu._w.tolist()))

    gaps = nbhd.discrepancies(nu)
    worst = max(gaps)
    if not worst < epsilon:
        raise DenseSetTooCoarseError(worst, epsilon)
    return nu
