"""Pushforward of measures along point maps and its preimage structure.

The pushforward acts on integrands by precomposition: integrating a
table against the image measure equals integrating its pullback against
the original. On finite-support measures this is a per-fiber max of
weights, which makes the functor laws (identity, composition, support
image) hold atom-exactly in floating point.

The preimage of a measure under a pushforward is an infinite max-plus
convex set; it is represented implicitly here through membership
(:func:`preimage_contains`), a seeded sampler (:func:`sample_preimage`),
and a geometry-aware representative lift (:func:`lift_toward`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LiftImpossibleError
from .ground import (
    FunctionTable,
    PointMap,
    _nearest,
    _require_same_space,
    fiber_points,
    require_nonempty_fiber,
)
from .measures import IdempotentMeasure, _merge, make_measure, max_weight_gap
from .rng import rand_int, trial_rng


def _require_source_measure(f: PointMap, mu: IdempotentMeasure) -> None:
    _require_same_space(mu._space, f._source, "measure does not live on the map source")


def _require_target_measure(f: PointMap, nu: IdempotentMeasure) -> None:
    _require_same_space(nu._space, f._target, "measure does not live on the map target")


def _lift_fiber(f: PointMap, y: str) -> tuple[str, ...]:
    """The fiber over a point that carries mass to be lifted; an empty fiber raises."""
    pts = fiber_points(f, y)
    if not pts:
        raise LiftImpossibleError(f"lift impossible: point {y!r} carries mass but has no preimage")
    return pts


def pushforward(f: PointMap, mu: IdempotentMeasure) -> IdempotentMeasure:
    """Transport a measure along a map: per-fiber max of atom weights.

    The peak atom survives (its image weight is still 0), so the result
    is normalized without any arithmetic on the weights.
    """
    _require_source_measure(f, mu)
    return IdempotentMeasure._trusted(f._target, *_merge(f._target, f._tpos[mu._idx], mu._w))


def support_image_check(f: PointMap, mu: IdempotentMeasure) -> bool:
    """Whether the pushforward support equals the set-image of the support."""
    image = {f(x) for x in mu.support}
    return set(pushforward(f, mu).support) == image


def preimage_contains(
    f: PointMap,
    nu: IdempotentMeasure,
    mu: IdempotentMeasure,
    tol: float = 0.0,
) -> bool:
    """Membership test for the preimage of ``nu`` under the pushforward.

    The pushforward of ``mu`` must have the support of ``nu`` and weights
    within ``tol`` of its weights (``tol`` 0: atom-exact).
    """
    _require_target_measure(f, nu)
    return max_weight_gap(pushforward(f, mu), nu) <= tol


def sample_preimage(f: PointMap, nu: IdempotentMeasure, seed: int) -> IdempotentMeasure:
    """A random element of the preimage of ``nu`` under the pushforward.

    In each fiber over a support point one designated point carries the
    fiber's weight exactly; every other fiber point either stays off the
    support (probability one half) or carries a uniform weight from the
    five units below. Identical seeds give identical output.
    """
    _require_target_measure(f, nu)
    rng = trial_rng(seed, 0)
    pairs: list[tuple[str, float]] = []
    for y, w in nu.atoms():
        pts = _lift_fiber(f, y)
        designated = pts[rand_int(rng, 0, len(pts) - 1)]
        for x in pts:
            if x == designated:
                pairs.append((x, w))
            elif float(rng.uniform(0.0, 1.0)) >= 0.5:
                pairs.append((x, w - float(rng.uniform(0.0, 5.0))))
    return make_measure(f._source, pairs)


def fiber_sup(f: PointMap, phi: FunctionTable) -> FunctionTable:
    """Per-fiber maximum of a source table, as a table on the target.

    Defined only where fibers are nonempty; a non-surjective map is
    rejected at the first point outside the image.
    """
    return _fiber_extreme(f, phi, max)


def fiber_inf(f: PointMap, phi: FunctionTable) -> FunctionTable:
    """Per-fiber minimum of a source table, as a table on the target."""
    return _fiber_extreme(f, phi, min)


def _fiber_extreme(f: PointMap, phi: FunctionTable, pick) -> FunctionTable:
    _require_same_space(phi._space, f._source, "table does not live on the map source")
    values = phi.values
    return FunctionTable._trusted(
        f._target,
        np.array([pick(values[x] for x in require_nonempty_fiber(f, y)) for y in f._target.point_ids]),
    )


@dataclass(frozen=True)
class FiberBoundReport:
    """Outcome of the fiber-bound check for a fiber-supported measure."""

    applicable: bool
    point: str
    lower: float | None
    upper: float | None
    integral: float | None
    passed: bool


def check_fiber_bounds(
    f: PointMap,
    y0: str,
    nu: IdempotentMeasure,
    phi: FunctionTable,
) -> FiberBoundReport:
    """Bound the integral of a measure that pushes forward to a point mass.

    When the pushforward of ``nu`` is the point mass at ``y0`` (else the
    report is marked inapplicable), the integral of any source table is
    squeezed between that table's minimum and maximum over the fiber.
    The bound is compared exactly: the peak atom adds 0 to its value and
    every other atom adds a weight below 0, which rounding cannot lift.
    """
    f.target.index(y0)
    push = pushforward(f, nu)
    if push.support != (y0,):
        return FiberBoundReport(False, y0, None, None, None, False)
    pts = fiber_points(f, y0)
    values = phi.values
    lower = min(values[x] for x in pts)
    upper = max(values[x] for x in pts)
    integral = nu.integrate(phi)
    passed = lower <= integral <= upper
    return FiberBoundReport(True, y0, lower, upper, integral, passed)


def lift_toward(
    f: PointMap,
    base: IdempotentMeasure,
    target: IdempotentMeasure,
) -> IdempotentMeasure:
    """Lift a target measure through the map, staying near a base measure.

    Each target atom is placed on the fiber point closest to the support
    of ``base`` (ties to the earliest point), keeping its weight, so the
    result pushes forward to ``target`` bit-exactly. Without coordinates
    on the source the representative is simply each fiber's earliest
    point.
    """
    _require_source_measure(f, base)
    _require_target_measure(f, target)
    source = f._source
    if not source.has_coords:
        return make_measure(source, ((_lift_fiber(f, y)[0], w) for y, w in target.atoms()))
    anchors = [base.support]

    def nearest(y: str) -> str:
        fiber = _lift_fiber(f, y)
        return fiber[_nearest(source, fiber, anchors)[0][0]]

    return make_measure(source, ((nearest(y), w) for y, w in target.atoms()))


def support_displacement(base: IdempotentMeasure, other: IdempotentMeasure) -> float:
    """How far the other measure's support strays from the base support.

    One-sided: the largest distance from an atom of ``other`` to its
    nearest atom of ``base``. Zero whenever the other support is a
    subset of the base support.
    """
    _require_same_space(base._space, other._space, "cannot measure displacement across spaces")
    return max(dist for _, dist in _nearest(base._space, base.support, [[p] for p in other.support]))
