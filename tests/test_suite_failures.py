"""Pinned reports of the seven ``check`` suites, passing and failing.

The passing ``check`` stdout at seed 0 (and at seeds 0-3 for ``kappa`` and
``density``) must hash to the SHA-256 that ``bench/digests.json`` records.
Then each suite runs under an injected fault (a library function patched
in the ``suites`` namespace, or, for the two suites with a bounded check,
a tolerance) so that its checks fail, and the whole report, failure
records and per-check counters included, is pinned by the SHA-256 of
``json.dumps(report.to_json_dict(), sort_keys=True, indent=2)``. Every
check name a suite can report appears in at least one pinned report.
Faults of one ulp or 1e-12 show that the exact checks stay exact, also
through ``maxplus check`` with any tolerance. The ``tight-eps`` density
report records the worst discrepancy of every trial, so it pins the bits
of the density test tables too.
"""

import hashlib
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from maxplus import (
    DenseSetTooCoarseError,
    FunctionTable,
    IdempotentMeasure,
    PointMap,
    fiber_points,
    make_measure,
    suites,
)
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


# Seed 0 of every suite, and seeds 1-3 of ``kappa``, whose draws are made
# apart from its checks and shared by its two counterfeits, and of
# ``density``, whose test tables are built as whole columns.
DIGEST_RUNS = [(suite, 0) for suite in sorted(suites.SUITES)] + [
    (suite, s) for suite in ("kappa", "density") for s in (1, 2, 3)
]


def _id_view(self):
    raise AssertionError("a passing check run built an id view")


@pytest.mark.parametrize("suite, seed", DIGEST_RUNS, ids=[s if n == 0 else f"{s}-seed{n}" for s, n in DIGEST_RUNS])
def test_passing_stdout_matches_recorded_digest(monkeypatch, capsys, suite, seed):
    monkeypatch.delenv("MAXPLUS_TOL", raising=False)
    # Library code and passing checks compute on positions: id views are only for callers.
    monkeypatch.setattr(FunctionTable, "values", property(_id_view))
    monkeypatch.setattr(PointMap, "_assign", property(_id_view))
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[suite][str(seed)]
    assert main(["check", suite, "--seed", str(seed)]) == 0
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
    _wrap(monkeypatch, "fiber_sup",
          lambda real: lambda f, phi: FunctionTable._trusted(f.target, real(f, phi)._v + 1.0))


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


def approximation_at_tight_eps(monkeypatch):
    """The real approximation at a thousandth of the epsilon: every trial is
    refused, and each record carries the worst discrepancy the test tables give."""
    def make(real):
        def approximate_on_dense(mu, dense, tests, eps):
            return real(mu, dense, tests, eps / 1000)
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


def lowered_combination_weight(monkeypatch):
    """A combination whose last weight below 0 comes out 1e-12 too low."""
    def make(real):
        def combine(alpha, mu, beta, nu):
            atoms = list(real(alpha, mu, beta, nu).atoms())
            low = [i for i, (_, w) in enumerate(atoms) if w < 0.0]
            if low:
                p, w = atoms[low[-1]]
                atoms[low[-1]] = (p, w - 1e-12)
            return make_measure(mu.space, atoms)
        return combine
    _wrap(monkeypatch, "combine", make)


def pullback_one_ulp_high(monkeypatch):
    """A pullback whose every value is one ulp too high."""
    def make(real):
        def pullback(phi, f):
            values = real(phi, f).values
            return FunctionTable(f.source, {p: math.nextafter(v, math.inf)
                                            for p, v in values.items()})
        return pullback
    _wrap(monkeypatch, "pullback", make)


def integral_one_ulp_high(monkeypatch):
    """Every Maslov integral one ulp too high."""
    real = IdempotentMeasure.integrate

    def integrate(mu, phi):
        return math.nextafter(real(mu, phi), math.inf)
    monkeypatch.setattr(IdempotentMeasure, "integrate", integrate)


def lift_to_last_fiber_point(monkeypatch):
    """A lift that pushes forward exactly but ignores the base: the last point of each fiber."""
    def lift_toward(f, base, target):
        return make_measure(f.source, [(fiber_points(f, y)[-1], w) for y, w in target.atoms()])
    monkeypatch.setattr(suites, "lift_toward", lift_toward)


def integral_block_changed(block, change):
    """Apply ``change`` to one of the six table families of the batched axioms integral."""
    def fault(monkeypatch):
        def make(real):
            def integrate_rows(mu, rows):
                out = real(mu, rows)
                n = len(out) // 6
                out[block * n:(block + 1) * n] = change(out[block * n:(block + 1) * n])
                return out
            return integrate_rows
        _wrap(monkeypatch, "_integrate_rows", make)
    return fault


def maslov_integral(mu):
    return mu.integrate


def counterfeits_integrate(monkeypatch):
    """Both axioms counterfeits replaced by the true Maslov integral."""
    monkeypatch.setattr(suites, "min_plus_functional", maslov_integral)
    monkeypatch.setattr(suites, "sum_functional", maslov_integral)


def kappa_counterfeits_are_distance(monkeypatch):
    monkeypatch.setattr(suites, "constant_candidate", suites.distance_candidate)
    monkeypatch.setattr(suites, "squared_distance_candidate", suites.distance_candidate)


def kappa_squared_is_distance(monkeypatch):
    """Only the second of the two counterfeits that share one stream of draws made honest."""
    monkeypatch.setattr(suites, "squared_distance_candidate", suites.distance_candidate)


# (case, suite, tol, fault, checks the report names, SHA-256). The tolerance is
# None for the suites whose checks are all exact, which take none.
CASES = [
    ("negative-tol", "axioms", -1.0, no_fault, {"homogeneity"},
     "a20f349e0a3bf2c76d409dd429cae674c781a426fd164d27c335035838b176d4"),
    ("norm-one-ulp-high", "axioms", 1.0,
     integral_block_changed(0, lambda x: np.nextafter(x, np.inf)), {"norm"},
     "6086dc4a9878cd39a55615a97f341c4119bc255fb8554b69e30b45fe3824f47b"),
    ("pullback-one-ulp-high", "functor", None, pullback_one_ulp_high, {"duality"},
     "f7583cf455621394453f6755470ffd65a834685e4465c0b057d27e723e236c77"),
    ("combination-weight-lowered", "convexity", None, lowered_combination_weight, {"preimage"},
     "4bbfabf795dd61a9e8b20bb39f5d4519bdbf4631f15d6f430ab711b21d6f0af0"),
    ("no-fault", "density", None, no_fault, set(),
     "5ef97e0067e1c7f59d4305d56fadd752c1dfcf4a6cdbff317a590ca25d44a45e"),
    ("lift-to-last-fiber-point", "openmap", None, lift_to_last_fiber_point, {"displacement"},
     "47492a9b04192aa971c16fb6f89a3db8a30cc79786a25b1a2fef6f2f3ae3f2a1"),
    ("integral-one-ulp-high", "lemmas", None, integral_one_ulp_high, {"fiber_bounds"},
     "cf2196d8fbf48b7838c84a740c06e82332d0a850159789c4015be4de163ffa2f"),
    ("negative-tol", "kappa", -1.0, no_fault, {"distance_axioms"},
     "162df3b52d5796b774f958d54eb359892ea0c438b04f0278798e1e3fef0fd7ee"),
    ("zero-tol", "axioms", 0.0, no_fault, {"homogeneity"},
     "013671c92206bb3bd8e2a06c7e8a276a4f062e481f5836961d306294bd9e0ae3"),
    ("join-raised", "axioms", 1e-12, integral_block_changed(4, lambda x: x + 1.0),
     {"max-additivity"},
     "3b326696eebb1042afcd35d53c8a91726fb15bcb32cdef434639665bb907617a"),
    ("above-lowered", "axioms", 1e-12, integral_block_changed(5, lambda x: x - 20.0),
     {"order-preservation"},
     "69d07d32a0072588a7fe91794162375c6474de00e3114a5955bf36bb14f1b5d8"),
    ("honest-counterfeits", "axioms", 1e-12, counterfeits_integrate,
     {"counterfeit-min-plus", "counterfeit-summation"},
     "51a1ca52de756ac086744fb8db0a0a2057ea93c037b950d6854edc36ef2b9191"),
    ("drop-last-atom", "functor", None, drop_last_atom,
     {"identity", "composition", "duality"},
     "3b90cf1bf31e481f74e8a179cd226087eb64f4a9feb5a1648fc5d89332ffb1b8"),
    ("support-image", "functor", None, support_image_on_small_supports, {"support_image"},
     "bd0135bbb8b80f358f0f838551025aa1100b9afeecd6536e6d8c47b0dd0f4167"),
    ("atoms-outside-union", "convexity", None, atoms_outside_union,
     {"preimage", "support_subset", "support_union", "cardinality"},
     "90a2277ebe0cedb402b1318a4337382ca0904b5c5407885df97d9e7709d3d965"),
    ("approximation-is-mu", "density", None, approximation_is_mu,
     {"support_in_dense", "coarseness_demo"},
     "1f2e538178a46d04259a569676fb31bc96a3ab448751803c77d34d4bfed6e846"),
    ("too-coarse", "density", None, approximation_too_coarse, {"approximation"},
     "c139b6c7ff5be0dc20c670af5cc2efbffd4a436ac2d9201a772814a501d04a07"),
    ("tight-eps", "density", None, approximation_at_tight_eps, {"approximation"},
     "465054c4c5afbfa3a39a49b1308c51c4f7f876b618c103263d58a5076227a325"),
    ("first-dense-point", "density", None, approximation_is_first_dense_point,
     {"containment", "coarseness_demo"},
     "d3de2e8ecc8e8fda4b1da9423bf71c8cd21238d1d3d76163704cf86fcbf50d4b"),
    ("too-large", "density", None, approximation_too_large,
     {"containment", "support_size", "coarseness_demo"},
     "650e87545161c718cb3ad6200c44ce8cef24cf3ddd800da1a5405fd5acc8e01a"),
    ("drop-last-atom", "openmap", None, drop_last_atom, {"exact_pushforward"},
     "67f1adbba281f578758dfaa29ca7f6af75f331f3deedaa98ba696680c9cb46d7"),
    ("displaced", "openmap", None, displacement_plus_one, {"target_near_base", "displacement"},
     "834d5bc42dc512f8f452a5de0cb219dbdeeccd24b0a1da43b0396f932969bf89"),
    ("inf-is-sup", "lemmas", None, inf_is_sup, {"dominated"},
     "2c3927dc16ccc14d64d81b6d8226527bf0d7a6b6796dafd4e038040f8cbcdfe8"),
    ("sup-too-high", "lemmas", None, sup_too_high, {"extreme_attained"},
     "8fa05530301f9ed0198bd170790c425f942d4e3860be0591f5242932b51b80a2"),
    ("honest-counterfeits", "kappa", 1e-12, kappa_counterfeits_are_distance,
     {"counterfeit-constant", "counterfeit-squared"},
     "4c18908dfbe7b4bbe5fe78cd7b006ed1fb1dae6d5df9b16131c83a3e67a37153"),
    ("one-honest-counterfeit", "kappa", 1e-12, kappa_squared_is_distance,
     {"counterfeit-squared"},
     "a8a32310b3c3e2fdb905c87cefd6c9fa260e9f1ecdb6a031be843b40cca34592"),
]


def report_text(monkeypatch, suite, tol, fault):
    fault(monkeypatch)
    options = {} if tol is None else {"tol": tol}
    report = suites.SUITES[suite](trials=TRIALS, seed=SEED, **options)
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


def test_only_bounded_suites_take_a_tolerance():
    for suite, run in suites.SUITES.items():
        takes_tol = "tol" in inspect.signature(run).parameters
        assert takes_tol == (suite in suites.BOUNDED_SUITES), suite


@pytest.mark.parametrize(
    "tol_args, env",
    [([], {}), (["--tol", "1"], {}), ([], {"MAXPLUS_TOL": "1"})],
    ids=["default", "flag", "env"],
)
def test_check_keeps_preimage_exact_under_any_tolerance(monkeypatch, capsys, tol_args, env):
    monkeypatch.delenv("MAXPLUS_TOL", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    lowered_combination_weight(monkeypatch)
    assert main(["check", "convexity", "--trials", "100", *tol_args]) == 1
    by_check = json.loads(capsys.readouterr().out)["details"]["failures_by_check"]
    assert by_check["preimage"] > 0


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
