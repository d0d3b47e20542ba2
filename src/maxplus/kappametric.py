"""Set-distance axioms as an executable checker on finite metric models.

A candidate assigns a non-negative real to every (point, nonempty set)
pair. Four axioms are probed on randomized points, sets, and increasing
set chains:

* K1 (belonging): the value is zero exactly on members;
* K2 (monotonicity): growing the set never grows the value;
* K3 (continuity): 1-Lipschitz in the point argument — the finite-model
  surrogate for continuity, evaluated only on spaces with coordinates;
* K4 (union): along a finite increasing chain, the value at the union
  (its last link) equals the minimum along the chain.

On a finite discrete model every subset is closed, so candidates face no
closedness side conditions. The reference candidate is the Euclidean
distance to the set; deliberately broken candidates (constant, squared
distance) are provided as negative controls.

Each trial's points and sets are drawn apart from any candidate, so the
two negative controls of ``check kappa`` share one stream of draws. Draws
and checks run on point positions; ids are rebuilt only for
counterexample records and for the ``rho`` of a candidate built by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import ValidationError
from .ground import GroundSpace, _set_distance
from .rng import choose, rand_int, subset, trial_rng

AXIOM_NAMES = {
    "K1": "belonging",
    "K2": "monotonicity",
    "K3": "continuity",
    "K4": "union",
}


@dataclass(frozen=True)
class KappaCandidate:
    """A named (point, set) -> real functional on one ground space.

    ``rho`` takes a point id and a tuple of ids. The checker computes on
    positions: it calls ``_on_positions``, the same functional on a
    position and a tuple of positions, which only the built-in candidates
    set; any other candidate's ``rho`` is called with the ids rebuilt.
    ``_on_positions`` is no constructor argument, so a candidate made by
    ``dataclasses.replace`` goes through its ``rho``. A candidate faces
    the K3 Lipschitz check exactly when its space has coordinates.
    """

    name: str
    space: GroundSpace
    rho: Callable[[str, tuple[str, ...]], float]
    _on_positions: Callable[[int, tuple[int, ...]], float] | None = field(
        default=None, init=False, repr=False, compare=False
    )


def _built_in(name: str, space: GroundSpace, on_positions, rho=None) -> KappaCandidate:
    """A candidate computed by ``on_positions``; its ``rho`` maps ids to positions unless given."""
    if rho is None:
        pos = space._index.__getitem__

        def rho(x: str, members: tuple[str, ...]) -> float:
            return on_positions(pos(x), tuple(map(pos, members)))

    candidate = KappaCandidate(name, space, rho)
    object.__setattr__(candidate, "_on_positions", on_positions)
    return candidate


def distance_candidate(space: GroundSpace) -> KappaCandidate:
    return _built_in("distance", space, _set_distance(space))


def constant_candidate(space: GroundSpace, value: float = 1.0) -> KappaCandidate:
    def rho(x, members) -> float:  # reads neither, so it serves ids and positions alike
        return value

    return _built_in("constant", space, rho, rho)


def squared_distance_candidate(space: GroundSpace) -> KappaCandidate:
    to_set = _set_distance(space)

    def on_positions(x: int, members: tuple[int, ...]) -> float:
        return to_set(x, members) ** 2

    return _built_in("squared-distance", space, on_positions)


@dataclass(frozen=True)
class KappaAxiomReport:
    """Per-axiom outcome of a randomized check of one candidate."""

    candidate: str
    trials_run: int
    axioms: dict

    @property
    def passed(self) -> bool:
        return all(a["status"] != "fail" for a in self.axioms.values())

    def as_dict(self) -> dict:
        return {
            "candidate": self.candidate,
            "trials_run": self.trials_run,
            "passed": self.passed,
            "axioms": self.axioms,
        }


def check_kappa_axioms(
    candidate: KappaCandidate,
    trials: int,
    seed: int,
    tol: float = 1e-12,
) -> KappaAxiomReport:
    """Probe one candidate on randomized points, sets, and chains.

    Runs every trial, recording the first counterexample per axiom, so a
    single broken axiom never masks the status of the others. Increasing
    chains for K4 are built by growing a random base set twice; their
    union is the last link, which is what finiteness makes of the
    well-ordered-chain form of the axiom.

    K1, K2 and K4 compare exactly (zero distances, minima of the same
    ``math.dist`` values). Only K3 reads ``tol``: three ``math.dist``
    calls (each within one ulp) and a subtraction let the gap exceed the
    distance by up to ``7 * 2**-53 * m``, ``m`` the largest distance.
    """
    return _check_kappa((candidate,), trials, seed, tol)[0]


def _kappa_draws(space: GroundSpace, trials: int, seed: int):
    """Yield ``(t, x, members, inside, outside, grown, x2, chain)`` for each trial, on positions.

    Points are positions in ``space`` and sets are tuples of positions in
    ascending order. Trial ``t`` draws from its own ``trial_rng(seed, t)``,
    in this order: the point ``x``; the set ``members`` and a member
    ``inside``; if ``members`` leaves points out, a point ``outside`` of it
    and a superset ``grown``; on a space with coordinates, a second point
    ``x2``; then a base set grown twice into the three-link ``chain``.
    ``outside`` and ``x2`` are ``None`` where nothing is drawn. A set that
    gains no point is the very object it grew from: ``grown is members``,
    or a link ``is`` the link before it. The draws are the ones a walk
    over the point ids made, mapped to positions. No draw reads a
    candidate, so one stream serves every candidate on the space.
    """
    n = len(space)
    every = range(n)

    def rest(base):
        return [p for p in every if p not in base]

    def grow(rng, base, room):
        add = rand_int(rng, 0, len(room)) if room else 0
        if not add:
            return base
        return tuple(sorted(base + tuple(subset(rng, room, add))))  # room is disjoint from base

    for t in range(trials):
        rng = trial_rng(seed, t)
        x = choose(rng, every)
        members = tuple(subset(rng, every, rand_int(rng, 1, n)))
        inside = choose(rng, members)
        outside = None
        grown = members
        complement = rest(members)
        if complement:
            outside = choose(rng, complement)
            grown = grow(rng, members, complement)
        x2 = choose(rng, every) if space.has_coords else None
        base = tuple(subset(rng, every, rand_int(rng, 1, n)))
        middle = grow(rng, base, rest(base))
        chain = (base, middle, grow(rng, middle, rest(middle)))
        yield t, x, members, inside, outside, grown, x2, chain


def _check_kappa(
    candidates: tuple[KappaCandidate, ...], trials: int, seed: int, tol: float
) -> list[KappaAxiomReport]:
    """Check candidates on one space against one stream of draws, each on its own.

    Each report equals the one ``check_kappa_axioms`` gives the candidate
    alone. A candidate is a function of (point, set), so a set that did
    not grow is not evaluated again: K2's grown set and K4's later links
    are evaluated only if they grew, and K3 reuses K2's
    ``rho(x, members)``. Laws whose drawn points coincide (``x`` is
    ``inside``, say) each evaluate their own.
    """
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    space = candidates[0].space
    draws = list(_kappa_draws(space, trials, seed))
    return [_check_candidate(candidate, draws, tol) for candidate in candidates]


def _through_ids(candidate: KappaCandidate) -> Callable[[int, tuple[int, ...]], float]:
    """A candidate's ``rho`` on positions, called with the ids of the point and the set."""
    rho, ids = candidate.rho, candidate.space._ids.__getitem__
    return lambda x, members: rho(ids(x), tuple(map(ids, members)))


def _check_candidate(candidate: KappaCandidate, draws: list, tol: float) -> KappaAxiomReport:
    """One candidate's report on position draws; ids appear only in records."""
    space = candidate.space
    rho = candidate._on_positions or _through_ids(candidate)
    coords = space._tuples() if space.has_coords else None
    pid = space._ids.__getitem__

    def ids(points):
        return list(map(pid, points))

    counterexamples: dict[str, dict | None] = {k: None for k in AXIOM_NAMES}

    for t, x, members, inside, outside, grown, x2, chain in draws:
        # K1, membership side: zero on members
        val = rho(inside, members)
        if counterexamples["K1"] is None and val != 0.0:
            counterexamples["K1"] = {
                "trial": t,
                "point": pid(inside),
                "set": ids(members),
                "value": val,
                "detail": "nonzero on a member of the set",
            }
        # K1, converse side: strictly positive off the set
        if outside is not None:
            val = rho(outside, members)
            if counterexamples["K1"] is None and not val > 0.0:
                counterexamples["K1"] = {
                    "trial": t,
                    "point": pid(outside),
                    "set": ids(members),
                    "value": val,
                    "detail": "zero off the set",
                }

        # K2: growing the set cannot grow the value
        small_val = rho(x, members)
        big_val = small_val if grown is members else rho(x, grown)
        if counterexamples["K2"] is None and not big_val <= small_val:
            counterexamples["K2"] = {
                "trial": t,
                "point": pid(x),
                "small_set": ids(members),
                "big_set": ids(grown),
                "small_value": small_val,
                "big_value": big_val,
            }

        # K3: 1-Lipschitz in the point argument
        if x2 is not None:
            lhs = abs(small_val - rho(x2, members))  # small_val is rho(x, members)
            bound = math.dist(coords[x], coords[x2])
            if counterexamples["K3"] is None and not lhs <= bound + tol:
                counterexamples["K3"] = {
                    "trial": t,
                    "point_a": pid(x),
                    "point_b": pid(x2),
                    "set": ids(members),
                    "value_gap": lhs,
                    "distance": bound,
                }

        # K4: along an increasing chain, the union (last link) attains the min
        base, middle, union = chain
        base_val = rho(x, base)
        middle_val = base_val if middle is base else rho(x, middle)
        union_val = middle_val if union is middle else rho(x, union)
        if counterexamples["K4"] is None and union_val != min(base_val, middle_val, union_val):
            counterexamples["K4"] = {
                "trial": t,
                "point": pid(x),
                "chain": list(map(ids, chain)),
                "chain_values": [base_val, middle_val, union_val],
                "union_value": union_val,
            }

    axioms = {}
    for key, human in AXIOM_NAMES.items():
        if key == "K3" and not space.has_coords:
            status = "not evaluated"
        elif counterexamples[key] is None:
            status = "pass"
        else:
            status = "fail"
        axioms[key] = {
            "name": human,
            "status": status,
            "counterexample": counterexamples[key],
        }
    return KappaAxiomReport(candidate.name, len(draws), axioms)
