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
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CoefficientError, NoMassError, NormAxiomError, ScalarError, ValidationError
from .ground import FunctionTable, GroundSpace, _require_same_space, _same_space
from .rng import trial_rng
from .semiring import scalar


class IdempotentMeasure:
    """Normalized finite-support measure on a ground space.

    A measure is two arrays: ``_idx``, the ascending positions of its
    support points in the space, and ``_w``, their float64 weights.
    ``weights`` maps point ids to max-plus weights; bottom weights are
    trimmed away. The remaining weights must peak at exactly 0 — use
    :meth:`from_weights` to normalize arbitrary non-empty weights first.
    """

    __slots__ = ("_space", "_idx", "_w")

    def __init__(self, space: GroundSpace, weights: Mapping[str, float]):
        self._space = space
        self._idx, self._w = _build(space, list(weights), list(weights.values()), normalize=False)

    @classmethod
    def _trusted(cls, space: GroundSpace, idx: np.ndarray, w: np.ndarray) -> IdempotentMeasure:
        # internal fast path: ascending unique positions, weights validated and normalized
        obj = cls.__new__(cls)
        obj._space = space
        obj._idx = idx
        obj._w = w
        return obj

    @classmethod
    def from_weights(cls, space: GroundSpace, weights: Mapping[str, float]) -> IdempotentMeasure:
        """Normalize arbitrary weights (at least one finite) into a measure.

        Subtracting the peak weight from every atom is the max-plus analogue
        of dividing by total mass. The peak atom lands at exactly 0.0 since
        ``w - w == 0.0`` for every finite float.
        """
        return cls._trusted(space, *_build(space, list(weights), list(weights.values()), normalize=True))

    @classmethod
    def dirac(cls, space: GroundSpace, point_id: str) -> IdempotentMeasure:
        """The point measure concentrated at one point with weight 0."""
        return cls._trusted(space, np.array([space.index(point_id)], np.intp), np.zeros(1))

    @property
    def space(self) -> GroundSpace:
        return self._space

    @property
    def space_id(self) -> str:
        return self._space.id

    @property
    def support(self) -> tuple[str, ...]:
        """Support points in space order."""
        return tuple(map(self._space._ids.__getitem__, self._idx.tolist()))

    def atoms(self) -> list[tuple[str, float]]:
        """(point id, weight) pairs in space order."""
        return list(zip(map(self._space._ids.__getitem__, self._idx.tolist()), self._w.tolist()))

    @property
    def _weights(self) -> dict[str, float]:
        """The atoms as a dict, built on each call (the benchmark's tracer counts atoms by it)."""
        return dict(self.atoms())

    def weight(self, point_id: str) -> float:
        """The weight at a point: ``-inf`` (bottom) off the support."""
        i = self._space.index(point_id)
        k = int(self._idx.searchsorted(i))
        if k < len(self._idx) and self._idx.item(k) == i:
            return self._w.item(k)
        return -math.inf

    def integrate(self, phi: FunctionTable) -> float:
        """Maslov integral: the peak of ``weight + phi`` over the support.

        A gather and a max; the first maximal atom gives the value, so a
        tie between ``+0.0`` and ``-0.0`` keeps the earlier one. Never
        bottom: the peak atom adds exactly 0.0 to a finite value.
        """
        _require_same_space(phi._space, self._space, "cannot integrate a table against a measure")
        if len(self._idx) <= _FEW:  # Python's max keeps the first of equal sums
            return max(map(operator.add, self._w.tolist(), phi._v[self._idx].tolist()))
        with np.errstate(over="ignore"):  # a sum that overflows is -inf, as in Python
            sums = self._w + phi._v[self._idx]
        return sums.item(sums.argmax())

    __call__ = integrate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdempotentMeasure):
            return NotImplemented
        return (
            _same_space(self._space, other._space)
            and self._idx.tolist() == other._idx.tolist()
            and self._w.tolist() == other._w.tolist()
        )

    __hash__ = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self._idx)

    def __repr__(self) -> str:
        inner = ", ".join(f"{pid}: {w}" for pid, w in self.atoms())
        return f"IdempotentMeasure({self.space_id!r}, {{{inner}}})"


def _integrate_rows(mu: IdempotentMeasure, rows: np.ndarray) -> np.ndarray:
    """The Maslov integral of each row of an ``(m, n)`` float64 array.

    Columns follow the space's point order. Each result is bit-identical
    to :meth:`IdempotentMeasure.integrate` of that row: where a row peaks
    at zero, the first maximal atom decides between ``+0.0`` and ``-0.0``.
    """
    with np.errstate(over="ignore"):  # a sum that overflows is -inf, as in Python
        sums = mu._w + rows[:, mu._idx]
    peaks = sums.max(axis=1)
    if np.count_nonzero(peaks) < len(peaks):  # max may return either zero: take the first maximal atom
        zero = (peaks == 0.0).nonzero()[0]
        tied = sums[zero]
        peaks[zero] = tied[np.arange(len(zero)), tied.argmax(axis=1)]
    return peaks


def _build(
    space: GroundSpace, ids: Sequence, weights: Sequence, normalize: bool, read=None
) -> tuple[np.ndarray, np.ndarray]:
    """Columns of point ids and raw weights to a measure's arrays.

    Maps the ids to positions and checks the weights, each once for the
    whole column, then hands both columns to :func:`_merge`. Ints and
    other non-float weights go through ``read`` (the JSON reader) when
    given, then through :func:`scalar`. A failed check names the
    earliest bad atom, as a per-atom check would (see :func:`_reject`).
    """
    try:
        pos = list(map(space._index.__getitem__, ids))
        if not set(map(type, weights)) <= {float}:
            convert = read or scalar
            weights = [w if type(w) is float else convert(w) for w in weights]
    except (KeyError, TypeError, ScalarError):
        _reject(space, ids, weights, read)
        raise
    if not all(map(math.inf.__gt__, weights)):  # NaN or +inf
        _reject(space, ids, weights, read)
    return _merge(space, pos, weights, normalize)


def _reject(space: GroundSpace, ids: Sequence, weights: Sequence, read) -> None:
    """Raise for the earliest bad atom of a column that failed a check.

    Within one atom a weight that ``read`` rejects comes first, then an
    unknown point, then a weight that :func:`scalar` rejects (NaN, +inf,
    and for library callers any non-number). A rejected weight is
    reported with its point.
    """
    for pid, w in zip(ids, weights):
        try:
            if read is not None and type(w) is not float:
                w = read(w)
            space.index(pid)  # raises UnknownPointError with context
            scalar(w)
        except ScalarError as exc:
            raise ScalarError(f"measure atom {pid!r}: {exc}") from None


_FEW = 64
"""Atom count up to which merging and integrating run on Python floats.

Every numpy call costs about a microsecond before it does any work, and
a merge takes about ten of them, so a loop over a few atoms is cheaper.
The check suites build thousands of measures of at most a dozen atoms.
"""


def _merge(
    space: GroundSpace, pos: Sequence[int], w: Sequence[float], normalize: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The one "move atoms, then max-merge" kernel behind every measure.

    ``pos`` holds space positions and ``w`` weights (no NaN, no +inf) in
    input order, both arrays or both lists. Bottom weights drop, atoms at one
    position merge by max (idempotent addition) and the support comes
    out in space order. Equal weights keep the first in input order,
    which matters only between ``+0.0`` and ``-0.0``. With ``normalize``
    the weights are shifted so the peak is 0, taking the first peak by
    first appearance; a shifted weight that rounds to ``-inf`` drops.
    Without it, a peak other than 0 is rejected. Up to ``_FEW`` atoms
    the merge runs on Python floats, above it on whole numpy columns
    (:func:`_max_scatter`); both give the same bits.
    """
    if len(w) <= _FEW:
        if isinstance(pos, np.ndarray):
            pos, w = pos.tolist(), w.tolist()
        best: dict[int, float] = {}
        bottom = -math.inf
        for p, x in zip(pos, w):
            if x > best.get(p, bottom):  # the first of equal weights stays; bottom never enters
                best[p] = x
        peak = max(best.values(), default=math.nan)  # the first peak by first appearance
        idx = sorted(best)
        idx, merged = np.array(idx, np.intp), np.array(list(map(best.__getitem__, idx)))
    else:
        idx, merged, peak = _max_scatter(len(space._ids), np.asarray(pos), np.asarray(w), normalize)
    if not len(idx):
        raise NoMassError(f"no mass: measure on space {space.id!r} has empty support")
    if normalize:
        with np.errstate(over="ignore"):  # a shift that overflows is -inf and drops
            merged = merged - peak
        keep = merged != -math.inf
        return idx[keep], merged[keep]
    if peak != 0.0:
        raise NormAxiomError(f"norm axiom violated: peak weight is {peak!r}, expected 0.0")
    return idx, merged


def _max_scatter(
    n: int, pos: np.ndarray, w: np.ndarray, first_peak: bool
) -> tuple[np.ndarray, np.ndarray, float]:
    """The merge on whole columns: max-scatter the weights into a vector over the space.

    Positions that receive no finite weight hold ``-inf`` and drop out.
    ``np.maximum`` may return either of ``+0.0`` and ``-0.0``, so where
    both meet at a position, the first zero there is written back. With
    ``first_peak`` a zero peak is the one that appears first in the input.
    """
    top = np.empty(n)
    top.fill(-math.inf)
    np.maximum.at(top, pos, w)
    idx = np.isfinite(top).nonzero()[0]
    zeros = (w == 0.0).nonzero()[0]
    negative = np.count_nonzero(np.signbit(w[zeros]))
    if 0 < negative < len(zeros):
        at, first = np.unique(pos[zeros], return_index=True)
        tied = top[at] == 0.0
        top[at[tied]] = w[zeros[first[tied]]]
    merged = top[idx]
    if not len(idx):
        return idx, merged, math.nan
    peak = merged.item(merged.argmax())
    if first_peak and peak == 0.0:
        first_seen = np.unique(pos[w != -math.inf], return_index=True)[1]
        tied = (merged == 0.0).nonzero()[0]
        peak = merged.item(tied[first_seen[tied].argmin()])
    return idx, merged, peak


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
    peak is ``max(alpha, beta) == 0``). The ``mu`` atoms go to the merge
    kernel first, so on a tie at one point the ``mu`` weight is kept.
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
    if len(mu) + len(nu) <= _FEW:  # Python floats: a sum that overflows is -inf and drops
        pos = mu._idx.tolist() + nu._idx.tolist()
        w = [av + x for x in mu._w.tolist()] + [bv + x for x in nu._w.tolist()]
    else:
        pos = np.concatenate((mu._idx, nu._idx))
        with np.errstate(over="ignore"):
            w = np.concatenate((av + mu._w, bv + nu._w))
    return IdempotentMeasure._trusted(mu.space, *_merge(mu.space, pos, w))


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
    pairs = list(raw_atoms)
    ids, weights = zip(*pairs) if pairs else ((), ())
    return IdempotentMeasure._trusted(space, *_build(space, ids, weights, normalize))


def max_weight_gap(mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """Largest absolute weight difference across the union of supports.

    Off-support points count as an infinite gap, so a finite return value
    certifies equal supports as well.
    """
    _require_same_space(mu._space, nu._space, "cannot compare measures")
    if mu._idx.tolist() != nu._idx.tolist():
        return math.inf
    if mu._w.tolist() == nu._w.tolist():
        return 0.0
    return float(np.abs(mu._w - nu._w).max())


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


def _first_law_failure(phi, psi, lam, evaluate, tol: float, eta=None):
    """The first law a functional breaks on a batch of tables, or ``None``.

    ``phi``, ``psi`` and ``eta`` hold ``(m, n)`` table rows in space order,
    ``lam`` ``m`` scalars; ``evaluate`` maps ``(k, n)`` rows to ``k`` values.
    Row ``i`` is checked for norm ``mu(lam) == lam``, homogeneity
    ``mu(phi + lam) == mu(phi) + lam`` within ``tol``, max-additivity
    ``mu(phi v psi) == max(mu(phi), mu(psi))`` (Python's ``max``: the first
    of equal values wins) and, given ``eta >= 0``, order preservation
    ``mu(phi + eta) >= mu(phi)``. Returns ``(row, law, expected, actual)``
    for the first failing row and the first law, in that order, it fails.

    For a Maslov integral every law but homogeneity is exact: only ``max``
    and monotone rounding act. Homogeneity rounds ``phi + lam``,
    ``w + (phi + lam)``, ``w + phi`` and ``mu(phi) + lam``, so its sides
    differ by at most ``4 * 2**-53 * B``, ``B`` bounding every sum: below
    1.2e-14 for tables in [-10, 10], ``lam`` in [-5, 5], weights in [-10, 0].
    """
    m, n = phi.shape
    col = lam[:, None]
    tables = [np.broadcast_to(col, (m, n)), phi, phi + col, psi, np.where(phi >= psi, phi, psi)]
    if eta is not None:
        tables.append(phi + eta)
    at_lam, m_phi, at_shift, m_psi, at_join, *at_above = evaluate(np.concatenate(tables)).reshape(-1, m)
    want_shift = m_phi + lam
    want_join = np.where(m_psi > m_phi, m_psi, m_phi)  # np.maximum would take m_psi at a +0.0/-0.0 tie
    laws = [
        ("norm", lam, at_lam, at_lam == lam),
        ("homogeneity", want_shift, at_shift, np.abs(at_shift - want_shift) <= tol),
        ("max-additivity", want_join, at_join, at_join == want_join),
    ]
    if eta is not None:
        laws.append(("order-preservation", m_phi, at_above[0], at_above[0] >= m_phi))
    held = np.logical_and.reduce([law[3] for law in laws])
    if held.all():
        return None
    i = int(held.argmin())
    law, expected, actual, _ = next(law for law in laws if not law[3][i])
    return i, law, float(expected[i]), float(actual[i])


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
    [-10, 10] and a scalar ``lam`` in [-5, 5], calls the functional on
    the five tables the laws need and checks norm, homogeneity (within
    ``tol``) and max-additivity as :func:`_first_law_failure` does.

    Stops at the first violation, which is recorded in full so the trial
    can be replayed from (seed, trial index).
    """
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")

    def evaluate(rows: np.ndarray) -> np.ndarray:
        return np.array([functional(FunctionTable._trusted(space, row)) for row in rows], float)

    for t in range(trials):
        rng = trial_rng(seed, t)
        phi = rng.uniform(-10.0, 10.0, (1, len(space)))
        psi = rng.uniform(-10.0, 10.0, (1, len(space)))
        lam = rng.uniform(-5.0, 5.0, (1,))
        failure = _first_law_failure(phi, psi, lam, evaluate, tol)
        if failure is None:
            continue
        _, axiom, expected, actual = failure
        record = {"axiom": axiom, "trial": t}
        if axiom != "max-additivity":
            record["lambda"] = lam.item()
        if axiom != "norm":
            record["phi"] = dict(zip(space._ids, phi[0].tolist()))
        if axiom == "max-additivity":
            record["psi"] = dict(zip(space._ids, psi[0].tolist()))
        record.update(expected=expected, actual=actual)
        return AxiomCheckReport(name, False, t + 1, record)
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
