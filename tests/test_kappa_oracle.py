"""The kappa checker against the loop it replaced.

``check_kappa_axioms`` draws each trial's points and sets apart from
checking them, and the two counterfeits of ``check kappa`` share one
stream of draws. Its reports are compared key for key, values and key
order included, with the single loop that drew and checked in one pass,
copied here as the reference: for every candidate, checked alone and
checked together with the others in one shared stream.
"""

import json
import random

import pytest

from maxplus import (
    GroundSpace,
    KappaCandidate,
    check_kappa_axioms,
    constant_candidate,
    distance_candidate,
    squared_distance_candidate,
    uniform_grid_2d,
)
from maxplus.ground import distance
from maxplus.kappametric import AXIOM_NAMES, _check_kappa, _kappa_draws
from maxplus.rng import choose, rand_int, subset, trial_rng

TRIALS = 30
TOL = 1e-12


def ref_check_kappa_axioms(candidate, trials, seed, tol):
    """The loop that drew and checked each trial in one pass."""
    space = candidate.space
    rho = candidate.rho
    pids = list(space.point_ids)
    n = len(pids)
    check_k3 = space.has_coords

    counterexamples = {k: None for k in AXIOM_NAMES}

    for t in range(trials):
        rng = trial_rng(seed, t)
        x = choose(rng, pids)
        members = tuple(subset(rng, pids, rand_int(rng, 1, n)))

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
        axioms[key] = {"name": human, "status": status, "counterexample": counterexamples[key]}
    passed = all(a["status"] != "fail" for a in axioms.values())
    return {"candidate": candidate.name, "trials_run": trials, "passed": passed, "axioms": axioms}


# --- candidates and spaces ------------------------------------------------------


def growing_candidate(space):
    """Zero on members, else the size of the set: breaks K2 and K4."""
    return KappaCandidate(
        "growing", space, lambda x, members: 0.0 if x in members else float(len(members))
    )


def parity_candidate(space):
    """Zero on members, else the parity of the set's size: zero off even sets (K1)."""
    return KappaCandidate(
        "parity", space, lambda x, members: 0.0 if x in members else float(len(members) % 2)
    )


def candidates_on(space):
    out = [constant_candidate(space), growing_candidate(space), parity_candidate(space)]
    if space.has_coords:
        out += [distance_candidate(space), squared_distance_candidate(space)]
    return out


def spaces(seed):
    """A space of ``seed + 1`` points with coordinates, the same ids without, and a grid."""
    rng = random.Random(seed)
    n = seed + 1
    coords = set()
    while len(coords) < n:
        coords.add((rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)))
    points = [(f"k{i}", c) for i, c in enumerate(sorted(coords))]
    grid = uniform_grid_2d(f"G{seed}", 2 + seed % 3, lo=0.0, hi=3.0)
    return [
        GroundSpace(f"C{seed}", points),
        GroundSpace(f"B{seed}", [f"k{i}" for i in range(n)]),
        grid,
    ]


# --- the pins -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_reports_match_the_single_pass_loop(seed):
    for space in spaces(seed):
        cands = candidates_on(space)
        # the JSON text tells -0.0 from 0.0 and keeps the key order
        want = [json.dumps(ref_check_kappa_axioms(c, TRIALS, seed, TOL)) for c in cands]
        alone = [json.dumps(check_kappa_axioms(c, TRIALS, seed, TOL).as_dict()) for c in cands]
        shared = [json.dumps(r.as_dict()) for r in _check_kappa(tuple(cands), TRIALS, seed, TOL)]
        assert alone == want, space.id
        assert shared == want, space.id


def test_the_pinned_streams_reach_every_branch():
    """The spaces above draw every shape of trial and fail every law in every way."""
    shapes = set()
    failures = set()
    for seed in range(20):
        for space in spaces(seed):
            for t, x, members, inside, outside, grown, x2, chain in _kappa_draws(space, TRIALS, seed):
                shapes.add(("whole set" if outside is None else
                            "extra == 0" if grown is members else "grown"))
                shapes.add("add == 0" if chain[1] is chain[0] or chain[2] is chain[1] else "added")
                shapes.add("x2" if x2 is not None else "no x2")
            for c in candidates_on(space):
                for key, axiom in check_kappa_axioms(c, TRIALS, seed, TOL).axioms.items():
                    ce = axiom["counterexample"]
                    if ce is not None:
                        failures.add((key, ce.get("detail")))
    assert shapes == {"whole set", "extra == 0", "grown", "add == 0", "added", "x2", "no x2"}
    assert failures == {
        ("K1", "nonzero on a member of the set"), ("K1", "zero off the set"),
        ("K2", None), ("K3", None), ("K4", None),
    }

