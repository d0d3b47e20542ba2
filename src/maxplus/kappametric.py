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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ValidationError
from .ground import GroundSpace, _nearest, distance
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

    It faces the K3 Lipschitz check exactly when its space has
    coordinates.
    """

    name: str
    space: GroundSpace
    rho: Callable[[str, tuple[str, ...]], float]


def distance_candidate(space: GroundSpace) -> KappaCandidate:
    def rho(x: str, members: tuple[str, ...]) -> float:
        return _nearest(space, members, ((x,),))[0][1]

    return KappaCandidate("distance", space, rho)


def constant_candidate(space: GroundSpace, value: float = 1.0) -> KappaCandidate:
    def rho(x: str, members: tuple[str, ...]) -> float:
        return value

    return KappaCandidate("constant", space, rho)


def squared_distance_candidate(space: GroundSpace) -> KappaCandidate:
    def rho(x: str, members: tuple[str, ...]) -> float:
        return _nearest(space, members, ((x,),))[0][1] ** 2

    return KappaCandidate("squared-distance", space, rho)


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
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    space = candidate.space
    rho = candidate.rho
    pids = list(space.point_ids)
    n = len(pids)
    check_k3 = space.has_coords

    counterexamples: dict[str, dict | None] = {k: None for k in AXIOM_NAMES}

    for t in range(trials):
        rng = trial_rng(seed, t)
        x = choose(rng, pids)
        members = tuple(subset(rng, pids, rand_int(rng, 1, n)))

        # K1, membership side: zero on members
        inside = choose(rng, list(members))
        val = rho(inside, members)
        if counterexamples["K1"] is None and val != 0.0:
            counterexamples["K1"] = {
                "trial": t,
                "point": inside,
                "set": list(members),
                "value": val,
                "detail": "nonzero on a member of the set",
            }
        # K1, converse side: strictly positive off the set
        complement = [p for p in pids if p not in members]
        if complement:
            outside = choose(rng, complement)
            val = rho(outside, members)
            if counterexamples["K1"] is None and not val > 0.0:
                counterexamples["K1"] = {
                    "trial": t,
                    "point": outside,
                    "set": list(members),
                    "value": val,
                    "detail": "zero off the set",
                }

        # K2: growing the set cannot grow the value
        extra = rand_int(rng, 0, len(complement)) if complement else 0
        grown = members
        if extra:
            grown = tuple(space.ordered(set(members) | set(subset(rng, complement, extra))))
        small_val = rho(x, members)
        big_val = rho(x, grown)
        if counterexamples["K2"] is None and not big_val <= small_val:
            counterexamples["K2"] = {
                "trial": t,
                "point": x,
                "small_set": list(members),
                "big_set": list(grown),
                "small_value": small_val,
                "big_value": big_val,
            }

        # K3: 1-Lipschitz in the point argument
        if check_k3:
            x2 = choose(rng, pids)
            lhs = abs(small_val - rho(x2, members))  # small_val is rho(x, members)
            bound = distance(space, x, x2)
            if counterexamples["K3"] is None and not lhs <= bound + tol:
                counterexamples["K3"] = {
                    "trial": t,
                    "point_a": x,
                    "point_b": x2,
                    "set": list(members),
                    "value_gap": lhs,
                    "distance": bound,
                }

        # K4: along an increasing chain, the union (last link) attains the min
        chain = [tuple(subset(rng, pids, rand_int(rng, 1, n)))]
        for _ in range(2):
            prev = chain[-1]
            room = [p for p in pids if p not in prev]
            add = rand_int(rng, 0, len(room)) if room else 0
            nxt = prev
            if add:
                nxt = tuple(space.ordered(set(prev) | set(subset(rng, room, add))))
            chain.append(nxt)
        chain_vals = [rho(x, link) for link in chain]
        union_val = chain_vals[-1]
        if counterexamples["K4"] is None and union_val != min(chain_vals):
            counterexamples["K4"] = {
                "trial": t,
                "point": x,
                "chain": [list(link) for link in chain],
                "chain_values": chain_vals,
                "union_value": union_val,
            }

    axioms = {}
    for key, human in AXIOM_NAMES.items():
        if key == "K3" and not check_k3:
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
    return KappaAxiomReport(candidate.name, trials, axioms)
