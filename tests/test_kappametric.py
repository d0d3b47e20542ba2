"""Distance-to-set functionals and the membership-function axioms."""

import math

import pytest

from maxplus import (
    GroundSpace,
    KappaAxiomReport,
    KappaCandidate,
    Point,
    ValidationError,
    check_kappa_axioms,
    constant_candidate,
    distance_candidate,
    squared_distance_candidate,
    uniform_grid_2d,
)
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
