"""Idempotent probability measures with finite support.

A measure is a weighted family ``(lambda_i, x_i)`` over a ground space,
normalized so the largest weight is exactly 0 (the max-plus unit) and
trimmed so no stored weight is bottom. Integration of a function table
is ``max_i (lambda_i + phi(x_i))``; norm and max-additivity hold exactly
in floating point because ``max`` never rounds and rounding is monotone,
and homogeneity holds within the rounding of the shifted sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import CoefficientError, NoMassError, NormAxiomError, ValidationError
from .ground import (
    FunctionTable,
    GroundSpace,
    _require_same_space,
    _same_space,
    constant_table,
    pointwise_max,
    shift,
)
from .rng import trial_rng
from .semiring import scalar


class IdempotentMeasure:
    """Normalized finite-support measure on a ground space.

    ``weights`` maps point ids to max-plus weights; bottom weights are
    trimmed away. The remaining weights must peak at exactly 0 — use
    :meth:`from_weights` to normalize arbitrary non-empty weights first.
    """

    __slots__ = ("_space", "_weights")

    def __init__(self, space: GroundSpace, weights: Mapping[str, float]):
        self._space = space
        self._weights = _build(space, weights.items(), normalize=False)

    @classmethod
    def _trusted(cls, space: GroundSpace, weights: dict[str, float]) -> IdempotentMeasure:
        # internal fast path: weights already validated, ordered, normalized
        obj = cls.__new__(cls)
        obj._space = space
        obj._weights = weights
        return obj

    @classmethod
    def from_weights(cls, space: GroundSpace, weights: Mapping[str, float]) -> IdempotentMeasure:
        """Normalize arbitrary weights (at least one finite) into a measure.

        Subtracting the peak weight from every atom is the max-plus analogue
        of dividing by total mass. The peak atom lands at exactly 0.0 since
        ``w - w == 0.0`` for every finite float.
        """
        return cls._trusted(space, _build(space, weights.items(), normalize=True))

    @classmethod
    def dirac(cls, space: GroundSpace, point_id: str) -> IdempotentMeasure:
        """The point measure concentrated at one point with weight 0."""
        space.index(point_id)
        return cls._trusted(space, {point_id: 0.0})

    @property
    def space(self) -> GroundSpace:
        return self._space

    @property
    def space_id(self) -> str:
        return self._space.id

    @property
    def support(self) -> tuple[str, ...]:
        """Support points in space order."""
        return tuple(self._weights)

    def atoms(self) -> Iterable[tuple[str, float]]:
        """(point id, weight) pairs in space order."""
        return self._weights.items()

    def weight(self, point_id: str) -> float:
        """The weight at a point: ``-inf`` (bottom) off the support."""
        if point_id not in self._space:
            self._space.index(point_id)
        return self._weights.get(point_id, -math.inf)

    def integrate(self, phi: FunctionTable) -> float:
        """Maslov integral: the peak of ``weight + phi`` over the support.

        Never bottom: the peak atom adds exactly 0.0 to a finite value.
        """
        _require_same_space(phi._space, self._space, "cannot integrate a table against a measure")
        values = phi.values
        return max(w + values[pid] for pid, w in self._weights.items())

    __call__ = integrate

    def is_dirac(self) -> bool:
        return len(self._weights) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdempotentMeasure):
            return NotImplemented
        return _same_space(self._space, other._space) and self._weights == other._weights

    __hash__ = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        inner = ", ".join(f"{pid}: {w}" for pid, w in self._weights.items())
        return f"IdempotentMeasure({self.space_id!r}, {{{inner}}})"


def _integrate_rows(mu: IdempotentMeasure, rows: np.ndarray) -> np.ndarray:
    """The Maslov integral of each row of an ``(m, n)`` float64 array.

    Columns follow the space's point order. Each result is bit-identical
    to :meth:`IdempotentMeasure.integrate` of that row, except that where
    ``+0.0`` and ``-0.0`` tie for the peak, numpy's ``max`` may return the
    other zero than Python's, which keeps the first.
    """
    idx = [mu._space._index[pid] for pid in mu._weights]
    w = np.fromiter(mu._weights.values(), np.float64, len(idx))
    with np.errstate(over="ignore"):  # a sum that overflows is -inf, as in Python
        return (w + rows[:, idx]).max(axis=1)


def _build(
    space: GroundSpace, pairs: Iterable[tuple[str, float]], normalize: bool
) -> dict[str, float]:
    """The one construction path: (point, weight) pairs to measure weights.

    Every point must belong to the space. Duplicate points merge by max
    (idempotent addition) and bottom weights drop, including a sum or a
    normalizing shift that rounds to ``-inf``. With ``normalize`` the
    weights are shifted so the peak is 0; without it, a peak other than 0
    is rejected. Returns the weights in space order. Plain floats are
    checked inline; any other weight goes through :func:`scalar`.
    """
    index = space._index
    inf = math.inf
    merged: dict[str, float] = {}
    for pid, w in pairs:
        if pid not in index:
            space.index(pid)  # raises UnknownPointError with context
        if type(w) is not float or not w < inf:  # NaN and +inf raise in scalar
            w = scalar(w)
        if w == -inf:
            continue
        prev = merged.get(pid)
        if prev is None or w > prev:
            merged[pid] = w
    if not merged:
        raise NoMassError(f"no mass: measure on space {space.id!r} has empty support")
    peak = max(merged.values())
    order = sorted(merged, key=index.__getitem__)
    if normalize:
        shifted = ((pid, merged[pid] - peak) for pid in order)
        return {pid: w for pid, w in shifted if w != -inf}
    if peak != 0.0:
        raise NormAxiomError(f"norm axiom violated: peak weight is {peak!r}, expected 0.0")
    return {pid: merged[pid] for pid in order}


def combine(
    alpha: float,
    mu: IdempotentMeasure,
    beta: float,
    nu: IdempotentMeasure,
) -> IdempotentMeasure:
    """Max-plus convex combination ``alpha * mu (+) beta * nu``.

    The coefficients must satisfy ``max(alpha, beta) == 0``; a bottom
    coefficient wipes out its side entirely, so the result collapses to
    the other measure. With both coefficients finite the combined support
    is the union of the two supports, less any atom whose shifted weight
    rounds to ``-inf``, and the result is normalized bit-exactly (its new
    peak is ``max(alpha, beta) == 0``).
    """
    _require_same_space(mu._space, nu._space, "cannot combine measures")
    av = scalar(alpha)
    bv = scalar(beta)
    if max(av, bv) != 0.0:
        raise CoefficientError(f"coefficient constraint violated: max({av!r}, {bv!r}) != 0")
    if av == -math.inf:
        return nu
    if bv == -math.inf:
        return mu
    shifted = [(pid, av + w) for pid, w in mu._weights.items()]
    shifted += [(pid, bv + w) for pid, w in nu._weights.items()]
    return IdempotentMeasure._trusted(mu.space, _build(mu.space, shifted, normalize=False))


def make_measure(
    space: GroundSpace,
    raw_atoms: Iterable[tuple[str, float]],
    normalize: bool = False,
) -> IdempotentMeasure:
    """Build a measure from (point, weight) pairs.

    Duplicate points merge by max (idempotent addition), bottom weights
    drop. With ``normalize`` the weights are shifted so the peak is 0;
    without it, a peak other than 0 is rejected.
    """
    return IdempotentMeasure._trusted(space, _build(space, raw_atoms, normalize))


def measure_equal(mu: IdempotentMeasure, nu: IdempotentMeasure, tol: float = 0.0) -> bool:
    """Same support and weights within tol (tol 0 = atom-exact)."""
    return max_weight_gap(mu, nu) <= tol


UNBOUNDED = math.inf
"""Support-cardinality bound standing for "no bound"."""


def card_class(mu: IdempotentMeasure, bound: float) -> bool:
    """Whether the support size is within the given bound.

    ``UNBOUNDED`` always holds; integer bounds pick out the measures of
    support cardinality at most that integer.
    """
    if bound != UNBOUNDED and (bound != int(bound) or bound < 1):
        raise ValidationError(f"cardinality bound must be a positive integer or UNBOUNDED, got {bound!r}")
    return len(mu) <= bound


def max_weight_gap(mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """Largest absolute weight difference across the union of supports.

    Off-support points count as an infinite gap, so a finite return value
    certifies equal supports as well.
    """
    _require_same_space(mu._space, nu._space, "cannot compare measures")
    if mu.support != nu.support:
        return math.inf
    nw = nu._weights
    return max(abs(w - nw[pid]) for pid, w in mu._weights.items())


# --- black-box axiom checking -------------------------------------------


@dataclass(frozen=True)
class AxiomCheckReport:
    """Outcome of a randomized axiom check on a functional.

    ``counterexample`` holds the first violation found (axiom name and
    the offending inputs/values); ``None`` when every trial passed.
    """

    name: str
    passed: bool
    trials_run: int
    counterexample: dict | None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "trials_run": self.trials_run,
            "counterexample": self.counterexample,
        }


def check_axioms(
    functional,
    space: GroundSpace,
    trials: int,
    seed: int,
    tol: float = 1e-12,
    name: str = "functional",
) -> AxiomCheckReport:
    """Probe a black-box functional against the three defining axioms.

    Each trial draws function tables ``phi``, ``psi`` with values in
    [-10, 10] and a scalar ``lam`` in [-5, 5], then checks:

    * norm: the constant table ``lam`` maps to exactly ``lam``;
    * homogeneity: shifting the argument by ``lam`` shifts the value,
      within ``tol``;
    * max-additivity: the pointwise max maps to exactly the max of the
      values.

    For a Maslov integral norm and max-additivity are exact: only ``max``
    and monotone rounding act. Homogeneity meets four roundings, so its
    sides differ by at most ``4 * 2**-53 * B``, ``B`` bounding every sum.

    Stops at the first violation, which is recorded in full so the trial
    can be replayed from (seed, trial index).
    """
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    pids = space.point_ids
    n = len(pids)
    for t in range(trials):
        rng = trial_rng(seed, t)
        phi_vals = {p: float(v) for p, v in zip(pids, rng.uniform(-10.0, 10.0, n))}
        psi_vals = {p: float(v) for p, v in zip(pids, rng.uniform(-10.0, 10.0, n))}
        lam = float(rng.uniform(-5.0, 5.0))
        phi = FunctionTable._trusted(space, phi_vals)
        psi = FunctionTable._trusted(space, psi_vals)

        got_norm = functional(constant_table(space, lam))
        if got_norm != lam:
            return AxiomCheckReport(name, False, t + 1, {
                "axiom": "norm",
                "trial": t,
                "lambda": lam,
                "expected": lam,
                "actual": got_norm,
            })

        base = functional(phi)
        shifted = functional(shift(phi, lam))
        if not abs(shifted - (base + lam)) <= tol:
            return AxiomCheckReport(name, False, t + 1, {
                "axiom": "homogeneity",
                "trial": t,
                "lambda": lam,
                "phi": phi_vals,
                "expected": base + lam,
                "actual": shifted,
            })

        lhs = functional(pointwise_max(phi, psi))
        rhs = max(base, functional(psi))
        if lhs != rhs:
            return AxiomCheckReport(name, False, t + 1, {
                "axiom": "max-additivity",
                "trial": t,
                "phi": phi_vals,
                "psi": psi_vals,
                "expected": rhs,
                "actual": lhs,
            })
    return AxiomCheckReport(name, True, trials, None)


def min_plus_functional(mu: IdempotentMeasure):
    """Negative control: min in place of max (breaks max-additivity)."""

    def evaluate(phi: FunctionTable) -> float:
        values = phi.values
        return min(w + values[pid] for pid, w in mu.atoms())

    return evaluate


def sum_functional(mu: IdempotentMeasure):
    """Negative control: plain summation over the support (breaks the norm axiom)."""

    def evaluate(phi: FunctionTable) -> float:
        values = phi.values
        return sum(values[pid] for pid in mu.support)

    return evaluate
