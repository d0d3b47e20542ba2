"""Distance-to-set functionals and the membership-function axioms."""

import dataclasses
import json
import math
import random

import pytest

from maxplus import (
    GroundSpace,
    KappaAxiomReport,
    KappaCandidate,
    MetricUnavailableError,
    Point,
    ValidationError,
    check_kappa_axioms,
    constant_candidate,
    distance_candidate,
    kappametric,
    squared_distance_candidate,
    suites,
    uniform_grid_2d,
)
from maxplus import ground
from maxplus.ground import _KEPT_ROWS, _nearest
from tests.conftest import on_both_geometry_paths

PLANE = GroundSpace(
    "P",
    [
        Point("o", (0.0, 0.0)),
        Point("e1", (1.0, 0.0)),
        Point("e2", (0.0, 1.0)),
        Point("far", (6.0, 8.0)),
    ],
)


# ---------------------------------------------------------------------------
# Distance to a set
# ---------------------------------------------------------------------------


@on_both_geometry_paths
def test_distance_to_set_oracle():
    rho = distance_candidate(PLANE).rho
    assert rho("o", ("e1", "e2")) == 1.0
    assert rho("far", ("o",)) == 10.0
    assert rho("e1", ("e1", "far")) == 0.0


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------


def test_distance_candidate_passes_all_axioms():
    report = check_kappa_axioms(distance_candidate(PLANE), trials=200, seed=5)
    assert isinstance(report, KappaAxiomReport)
    assert report.passed
    assert report.trials_run == 200
    statuses = {k: v["status"] for k, v in report.axioms.items()}
    assert statuses == {"K1": "pass", "K2": "pass", "K3": "pass", "K4": "pass"}


def test_distance_candidate_passes_on_grid():
    grid = uniform_grid_2d("G", 4, lo=0.0, hi=10.0)
    report = check_kappa_axioms(distance_candidate(grid), trials=100, seed=9)
    assert report.passed


def test_constant_candidate_fails_exactly_belonging():
    report = check_kappa_axioms(constant_candidate(PLANE), trials=200, seed=5)
    assert not report.passed
    statuses = {k: v["status"] for k, v in report.axioms.items()}
    assert statuses["K1"] == "fail"
    assert statuses["K2"] == "pass"
    assert statuses["K3"] == "pass"  # a constant is trivially 1-Lipschitz
    assert statuses["K4"] == "pass"
    assert report.axioms["K1"]["counterexample"]["value"] == 1.0


def test_squared_candidate_fails_exactly_continuity():
    # squared distance breaks the 1-Lipschitz bound once points are far
    # enough apart; the coordinate box [0, 10]^2 guarantees such pairs.
    report = check_kappa_axioms(squared_distance_candidate(PLANE), trials=500, seed=5)
    assert not report.passed
    statuses = {k: v["status"] for k, v in report.axioms.items()}
    assert statuses["K1"] == "pass"
    assert statuses["K2"] == "pass"
    assert statuses["K3"] == "fail"
    assert statuses["K4"] == "pass"
    ce = report.axioms["K3"]["counterexample"]
    assert ce["value_gap"] > ce["distance"] + 1e-12


def test_continuity_not_evaluated_without_coords():
    bare = GroundSpace("B", [Point("a"), Point("b"), Point("c")])
    rho = lambda x, members: 0.0 if x in members else 1.0
    candidate = KappaCandidate("indicator", bare, rho)
    report = check_kappa_axioms(candidate, trials=50, seed=1)
    assert report.axioms["K3"]["status"] == "not evaluated"
    # the discrete indicator still satisfies belonging, monotonicity, union
    assert report.axioms["K1"]["status"] == "pass"
    assert report.axioms["K2"]["status"] == "pass"
    assert report.axioms["K4"]["status"] == "pass"
    assert report.passed  # "not evaluated" is not a failure


def test_monotonicity_counterexample_detected():
    # shrinks where it should not: value grows when the set grows
    distance = distance_candidate(PLANE).rho

    def rho(x, members):
        base = distance(x, members)
        return base + 0.5 * len(members) if base > 0 else 0.0

    candidate = KappaCandidate("bloater", PLANE, rho)
    report = check_kappa_axioms(candidate, trials=300, seed=2)
    assert report.axioms["K2"]["status"] == "fail"


def test_union_axiom_on_increasing_chains():
    # distance to a set only shrinks along an increasing chain and the
    # chain's union is its last link; the checker verifies value-at-union
    # equals the min along the chain.
    report = check_kappa_axioms(distance_candidate(PLANE), trials=300, seed=11)
    assert report.axioms["K4"]["status"] == "pass"


def test_report_dict_shape():
    report = check_kappa_axioms(distance_candidate(PLANE), trials=10, seed=0)
    d = report.as_dict()
    assert d["candidate"] == "distance"
    assert d["passed"] is True
    assert set(d["axioms"]) == {"K1", "K2", "K3", "K4"}


def test_check_requires_positive_trials():
    with pytest.raises(ValidationError):
        check_kappa_axioms(distance_candidate(PLANE), trials=0, seed=0)


def test_determinism_of_reports():
    a = check_kappa_axioms(squared_distance_candidate(PLANE), trials=100, seed=4)
    b = check_kappa_axioms(squared_distance_candidate(PLANE), trials=100, seed=4)
    assert a.as_dict() == b.as_dict()


# ---------------------------------------------------------------------------
# One stream of draws, one value per set
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def counting_candidate(space):
    calls = []
    distance = distance_candidate(space).rho

    def rho(x, members):
        calls.append((x, members))
        return distance(x, members)

    return KappaCandidate("counted", space, rho), calls


def test_candidates_on_one_space_share_one_stream(monkeypatch):
    built = count_calls(monkeypatch, kappametric, "trial_rng")
    reports = kappametric._check_kappa(
        (distance_candidate(PLANE), squared_distance_candidate(PLANE)), 25, 3, 1e-12
    )
    assert len(built) == 25
    assert [r.candidate for r in reports] == ["distance", "squared-distance"]


def test_run_kappa_draws_each_trial_once(monkeypatch):
    trials = 3
    built = count_calls(monkeypatch, kappametric, "trial_rng")
    built_by_suite = count_calls(monkeypatch, suites, "trial_rng")
    suites.run_kappa(trials=trials, seed=0)
    # outer trials and the witness, ten inner trials per space, one shared
    # stream of 1000 for the two counterfeits
    assert len(built) + len(built_by_suite) == trials + 10 * trials + 1000 + 1


def test_a_set_that_did_not_grow_is_not_evaluated_again():
    space = uniform_grid_2d("G", 2)
    shapes = set()
    for seed in range(40):
        candidate, calls = counting_candidate(space)
        kappametric._check_kappa((candidate,), 1, seed, 1e-12)
        [(_, _, members, _, outside, grown, x2, (base, middle, union))] = (
            kappametric._kappa_draws(space, 1, seed)
        )
        grew = grown is not members
        # inside, x and the chain's base always; the rest only where drawn or grown
        assert len(calls) == 3 + (outside is not None) + grew + (x2 is not None) + (
            middle is not base) + (union is not middle)
        if outside is not None:
            shapes.add(grew)
    assert shapes == {False, True}  # extra == 0 costs one call fewer than a grown set


# ---------------------------------------------------------------------------
# The public contract: ids in, ids out
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [distance_candidate, squared_distance_candidate])
@pytest.mark.parametrize("n", [3, _KEPT_ROWS + 1])  # kept rows, then _nearest
def test_a_distance_candidate_on_a_bare_space_fails_at_its_first_call(make, n):
    bare = GroundSpace("B", [f"b{i}" for i in range(n)])
    candidate = make(bare)  # building it needs no metric
    with pytest.raises(MetricUnavailableError):
        candidate.rho("b0", ("b1",))
    with pytest.raises(MetricUnavailableError):
        check_kappa_axioms(candidate, trials=3, seed=0)


def random_coordinate_spaces():
    rng = random.Random(8)
    spaces = []
    for i, (n, d) in enumerate(((1, 1), (2, 2), (7, 3), (12, 2), (20, 2), (40, 1), (300, 2))):
        coords = set()
        while len(coords) < n:
            coords.add(tuple(rng.uniform(-10.0, 10.0) for _ in range(d)))
        spaces.append(GroundSpace(f"R{i}", [(f"r{j}", c) for j, c in enumerate(sorted(coords))]))
    return spaces


@on_both_geometry_paths
def test_public_rho_is_the_nearest_point_kernel_bit_for_bit():
    rng = random.Random(3)
    for space in random_coordinate_spaces():
        distance, squared = distance_candidate(space).rho, squared_distance_candidate(space).rho
        ids = space.point_ids
        asked = set()
        for _ in range(50):
            x = rng.choice(ids)
            asked.add(x)
            members = tuple(space.ordered(rng.sample(ids, rng.randint(1, len(ids)))))
            [(_, want)] = _nearest(space, list(map(space.index, members)), ((space.index(x),),))
            assert distance(x, members).hex() == want.hex()
            assert squared(x, members).hex() == (want**2).hex()
        # a space above _KEPT_ROWS points asks _nearest and keeps no row; a smaller one keeps one per point asked about
        assert len(space._distance_rows()) == (0 if len(space) > _KEPT_ROWS else len(asked))


def test_kept_rows_and_the_kernel_give_one_report(monkeypatch):
    [big] = [space for space in random_coordinate_spaces() if len(space) > _KEPT_ROWS]

    def reports():
        candidates = (distance_candidate(big), squared_distance_candidate(big))
        return [json.dumps(r.as_dict()) for r in kappametric._check_kappa(candidates, 30, 4, 1e-12)]

    kernel = reports()
    assert len(big._distance_rows()) == 0
    monkeypatch.setattr(ground, "_KEPT_ROWS", len(big))
    assert reports() == kernel
    assert len(big._distance_rows()) > 0


def test_a_user_candidate_sees_ids_and_its_records_name_ids():
    space = uniform_grid_2d("G", 3)
    ids = set(space.point_ids)
    seen = []

    def rho(x, members):
        seen.append((x, members))
        return float(len(members)) * (1.0 if x in members else 10.0)

    report = check_kappa_axioms(KappaCandidate("sizes", space, rho), trials=200, seed=1)
    assert seen and all(
        type(x) is str and x in ids and type(m) is tuple and set(map(type, m)) == {str} and set(m) <= ids
        for x, m in seen
    )
    assert {k: a["status"] for k, a in report.axioms.items()} == dict.fromkeys(("K1", "K2", "K3", "K4"), "fail")
    for axiom in report.axioms.values():
        record = axiom["counterexample"]
        for key in ("point", "point_a", "point_b"):
            assert key not in record or record[key] in ids
        for key in ("set", "small_set", "big_set"):
            assert key not in record or (type(record[key]) is list and set(record[key]) <= ids)
        assert all(set(link) <= ids for link in record.get("chain", ()))


def test_a_candidate_with_a_replaced_rho_is_checked_through_it():
    constant = dataclasses.replace(distance_candidate(PLANE), rho=lambda x, members: 1.0)
    report = check_kappa_axioms(constant, trials=50, seed=5)
    assert report.axioms["K1"]["status"] == "fail"
    assert report.axioms["K1"]["counterexample"]["value"] == 1.0
