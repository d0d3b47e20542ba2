"""Pinned reports of the seven ``check`` suites, passing and failing.

The passing ``check`` stdout at seed 0 must hash to the SHA-256 that
``bench/digests.json`` records. Then each suite runs under an injected
fault (a negative tolerance, or a library function patched in the
``suites`` namespace) so that its checks fail, and the whole report,
failure records and per-check counters included, is pinned by the
SHA-256 of ``json.dumps(report.to_json_dict(), sort_keys=True, indent=2)``.
Every check name a suite can report appears in at least one pinned
report.
"""

import hashlib
import json
from pathlib import Path

import pytest

from maxplus import DenseSetTooCoarseError, IdempotentMeasure, make_measure, shift, suites
from maxplus.cli import main

DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"

TRIALS = 40
SEED = 3

ALL_CHECKS = {
    "axioms": {
        "norm", "homogeneity", "max-additivity", "order-preservation",
        "counterfeit-min-plus", "counterfeit-summation",
    },
    "functor": {"identity", "composition", "support_image", "duality"},
    "convexity": {"preimage", "support_subset", "support_union", "cardinality"},
    "density": {
        "approximation", "containment", "support_in_dense", "support_size", "coarseness_demo",
    },
    "openmap": {"target_near_base", "exact_pushforward", "displacement"},
    "lemmas": {"dominated", "extreme_attained", "fiber_bounds"},
    "kappa": {"distance_axioms", "counterfeit-constant", "counterfeit-squared"},
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_passing_stdout_matches_recorded_digest(monkeypatch, capsys, suite):
    monkeypatch.delenv("MAXPLUS_TOL", raising=False)
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[suite]["0"]
    assert main(["check", suite, "--seed", "0"]) == 0
    assert _sha256(capsys.readouterr().out) == want


# --- faults: each patches names in the ``suites`` namespace -------------------------


def _wrap(monkeypatch, name, make):
    monkeypatch.setattr(suites, name, make(getattr(suites, name)))


def no_fault(monkeypatch):
    pass


def drop_last_atom(monkeypatch):
    """A pushforward that loses the last atom of a multi-atom image."""
    def make(real):
        def pushforward(f, mu):
            out = real(f, mu)
            atoms = list(out.atoms())
            return out if len(atoms) < 2 else make_measure(out.space, atoms[:-1], normalize=True)
        return pushforward
    _wrap(monkeypatch, "pushforward", make)


def atoms_outside_union(monkeypatch):
    """A combination that adds every point outside the union of the supports."""
    def make(real):
        def combine(alpha, mu, beta, nu):
            out = real(alpha, mu, beta, nu)
            used = set(mu.support) | set(nu.support)
            extra = [(p, -1.0) for p in out.space.point_ids if p not in used]
            return make_measure(out.space, [*out.atoms(), *extra])
        return combine
    _wrap(monkeypatch, "combine", make)


def inf_is_sup(monkeypatch):
    monkeypatch.setattr(suites, "fiber_inf", suites.fiber_sup)


def sup_too_high(monkeypatch):
    """A fiber maximum one above the attained one."""
    _wrap(monkeypatch, "fiber_sup", lambda real: lambda f, phi: shift(real(f, phi), 1.0))


def approximation_is_mu(monkeypatch):
    monkeypatch.setattr(suites, "approximate_on_dense", lambda mu, dense, tests, eps: mu)


def approximation_too_coarse(monkeypatch):
    """Approximation refused for every measure with more than three atoms."""
    def make(real):
        def approximate_on_dense(mu, dense, tests, eps):
            if len(mu) > 3:
                raise DenseSetTooCoarseError(float(len(mu)), eps)
            return real(mu, dense, tests, eps)
        return approximate_on_dense
    _wrap(monkeypatch, "approximate_on_dense", make)


def approximation_is_first_dense_point(monkeypatch):
    monkeypatch.setattr(
        suites, "approximate_on_dense",
        lambda mu, dense, tests, eps: IdempotentMeasure.dirac(mu.space, dense[0]),
    )


def approximation_too_large(monkeypatch):
    """An approximation with one atom more than the measure."""
    def approximate_on_dense(mu, dense, tests, eps):
        return make_measure(mu.space, [(g, 0.0) for g in dense[: len(mu) + 1]])
    monkeypatch.setattr(suites, "approximate_on_dense", approximate_on_dense)


def support_image_on_small_supports(monkeypatch):
    """A support-image check that answers false from four atoms on."""
    _wrap(monkeypatch, "support_image_check",
          lambda real: lambda f, mu: real(f, mu) and len(mu) < 4)


def displacement_plus_one(monkeypatch):
    _wrap(monkeypatch, "support_displacement", lambda real: lambda a, b: real(a, b) + 1.0)


def integral_block_shifted(block, by):
    """Shift one of the six table families of the batched axioms integral."""
    def fault(monkeypatch):
        def make(real):
            def integrate_rows(mu, rows):
                out = real(mu, rows)
                n = len(out) // 6
                out[block * n:(block + 1) * n] += by
                return out
            return integrate_rows
        _wrap(monkeypatch, "_integrate_rows", make)
    return fault


def maslov_integral(mu):
    return lambda phi: mu.integrate(phi).as_float()


def counterfeits_integrate(monkeypatch):
    """Both axioms counterfeits replaced by the true Maslov integral."""
    monkeypatch.setattr(suites, "min_plus_functional", maslov_integral)
    monkeypatch.setattr(suites, "sum_functional", maslov_integral)


def kappa_counterfeits_are_distance(monkeypatch):
    monkeypatch.setattr(suites, "constant_candidate", suites.distance_candidate)
    monkeypatch.setattr(suites, "squared_distance_candidate", suites.distance_candidate)


# (case, suite, tol, fault, checks the report names, SHA-256 recorded before the
# suites shared one failure path)
CASES = [
    ("negative-tol", "axioms", -1.0, no_fault, {"norm"},
     "866bb464e0f432f7de0d281bad309e44bbfd51f8ea1da97fea719b3cc9553971"),
    ("negative-tol", "functor", -1.0, no_fault, {"duality"},
     "5fd83de6d08771affa5f50944981d7aa124c6b83ebca98377cc0eb9e7b48ab5d"),
    ("negative-tol", "convexity", -1.0, no_fault, {"preimage"},
     "3abc2738641c63f3f47fe3d741ef9820370f6aff9eda3f8464fa227d841abc3d"),
    ("negative-tol", "density", -1.0, no_fault, set(),
     "5ef97e0067e1c7f59d4305d56fadd752c1dfcf4a6cdbff317a590ca25d44a45e"),
    ("negative-tol", "openmap", -1.0, no_fault, {"displacement"},
     "c0031abf409fbcf282ddef8045b3cc23d7c1d52ed3d1865878d96a1566853026"),
    ("negative-tol", "lemmas", -1.0, no_fault, {"fiber_bounds"},
     "ede7463d1b6b7c275dda90f304ac87175f34964490acd92ebe77f3dd3eb43fdc"),
    ("negative-tol", "kappa", -1.0, no_fault, {"distance_axioms"},
     "8b19997e82473a1aeb15afce6d8c6f4ba69f8d989e2ac03c64fb04dcac392602"),
    ("zero-tol", "axioms", 0.0, no_fault, {"homogeneity"},
     "013671c92206bb3bd8e2a06c7e8a276a4f062e481f5836961d306294bd9e0ae3"),
    ("join-raised", "axioms", 1e-12, integral_block_shifted(4, 1.0), {"max-additivity"},
     "3b326696eebb1042afcd35d53c8a91726fb15bcb32cdef434639665bb907617a"),
    ("above-lowered", "axioms", 1e-12, integral_block_shifted(5, -20.0),
     {"order-preservation"},
     "69d07d32a0072588a7fe91794162375c6474de00e3114a5955bf36bb14f1b5d8"),
    ("honest-counterfeits", "axioms", 1e-12, counterfeits_integrate,
     {"counterfeit-min-plus", "counterfeit-summation"},
     "51a1ca52de756ac086744fb8db0a0a2057ea93c037b950d6854edc36ef2b9191"),
    ("drop-last-atom", "functor", 1e-12, drop_last_atom,
     {"identity", "composition", "duality"},
     "3b90cf1bf31e481f74e8a179cd226087eb64f4a9feb5a1648fc5d89332ffb1b8"),
    ("support-image", "functor", 1e-12, support_image_on_small_supports, {"support_image"},
     "bd0135bbb8b80f358f0f838551025aa1100b9afeecd6536e6d8c47b0dd0f4167"),
    ("atoms-outside-union", "convexity", 0.0, atoms_outside_union,
     {"preimage", "support_subset", "support_union", "cardinality"},
     "90a2277ebe0cedb402b1318a4337382ca0904b5c5407885df97d9e7709d3d965"),
    ("approximation-is-mu", "density", 1e-12, approximation_is_mu,
     {"support_in_dense", "coarseness_demo"},
     "1f2e538178a46d04259a569676fb31bc96a3ab448751803c77d34d4bfed6e846"),
    ("too-coarse", "density", 1e-12, approximation_too_coarse, {"approximation"},
     "c139b6c7ff5be0dc20c670af5cc2efbffd4a436ac2d9201a772814a501d04a07"),
    ("first-dense-point", "density", 1e-12, approximation_is_first_dense_point,
     {"containment", "coarseness_demo"},
     "d3de2e8ecc8e8fda4b1da9423bf71c8cd21238d1d3d76163704cf86fcbf50d4b"),
    ("too-large", "density", 1e-12, approximation_too_large,
     {"containment", "support_size", "coarseness_demo"},
     "650e87545161c718cb3ad6200c44ce8cef24cf3ddd800da1a5405fd5acc8e01a"),
    ("drop-last-atom", "openmap", 0.0, drop_last_atom, {"exact_pushforward"},
     "67f1adbba281f578758dfaa29ca7f6af75f331f3deedaa98ba696680c9cb46d7"),
    ("displaced", "openmap", 0.0, displacement_plus_one, {"target_near_base", "displacement"},
     "834d5bc42dc512f8f452a5de0cb219dbdeeccd24b0a1da43b0396f932969bf89"),
    ("inf-is-sup", "lemmas", 1e-12, inf_is_sup, {"dominated"},
     "2c3927dc16ccc14d64d81b6d8226527bf0d7a6b6796dafd4e038040f8cbcdfe8"),
    ("sup-too-high", "lemmas", 1e-12, sup_too_high, {"extreme_attained"},
     "8fa05530301f9ed0198bd170790c425f942d4e3860be0591f5242932b51b80a2"),
    ("honest-counterfeits", "kappa", 1e-12, kappa_counterfeits_are_distance,
     {"counterfeit-constant", "counterfeit-squared"},
     "4c18908dfbe7b4bbe5fe78cd7b006ed1fb1dae6d5df9b16131c83a3e67a37153"),
]


def report_text(monkeypatch, suite, tol, fault):
    fault(monkeypatch)
    report = suites.SUITES[suite](trials=TRIALS, seed=SEED, tol=tol)
    return report, json.dumps(report.to_json_dict(), sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "suite, tol, fault, checks, digest",
    [case[1:] for case in CASES],
    ids=[f"{case[1]}-{case[0]}" for case in CASES],
)
def test_failure_report_is_pinned(monkeypatch, suite, tol, fault, checks, digest):
    report, text = report_text(monkeypatch, suite, tol, fault)
    assert {f["check"] for f in report.failures} == checks
    assert report.passed == (not checks)
    assert _sha256(text) == digest


def test_every_check_is_pinned():
    for suite, names in ALL_CHECKS.items():
        pinned = set().union(*(case[4] for case in CASES if case[1] == suite))
        assert pinned == names, suite


def test_undeclared_check_raises():
    report = suites.SuiteReport.counting("functor", 1, 0, ("identity",))
    with pytest.raises(KeyError):
        report.fail(0, "identiy", {}, "mu", "changed by identity pushforward")
    assert report.failures == []
    assert report.details == {"failures_by_check": {"identity": 0}}
