"""Acceptance gate: eleven numbered criteria, one reported line each.

Each criterion owns a test that prints a single ``criterion NN PASS/FAIL``
line through the capture bypass, so the verdicts land in the terminal
even when pytest is capturing output. Suites that several criteria share
(the functor run backs criteria 2 and 3, the convexity run backs 4 and
5, the axiom run backs 1 and 10) execute once per session and are
inspected from multiple angles.
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest

from maxplus.suites import (
    run_axioms,
    run_convexity,
    run_density,
    run_functor,
    run_kappa,
    run_lemmas,
    run_openmap,
)

SEED = 42
CMD = [sys.executable, "-m", "maxplus"]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def axioms_run():
    return _timed(run_axioms, 1000, SEED, 1e-12)


@pytest.fixture(scope="session")
def functor_run():
    return _timed(run_functor, 500, SEED)


@pytest.fixture(scope="session")
def convexity_run():
    return _timed(run_convexity, 500, SEED)


@pytest.fixture(scope="session")
def density_run():
    return _timed(run_density, 200, SEED)


@pytest.fixture(scope="session")
def lemmas_run():
    return _timed(run_lemmas, 500, SEED)


@pytest.fixture(scope="session")
def openmap_run():
    return _timed(run_openmap, 200, SEED)


@pytest.fixture(scope="session")
def kappa_run():
    return _timed(run_kappa, 100, SEED)


def _verdict(capsys, num, ok, text):
    with capsys.disabled():
        print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {num}: {text}"


# ---------------------------------------------------------------------------
# 1. Integral functional axioms on randomized measures
# ---------------------------------------------------------------------------


def test_criterion_01_integral_axioms(axioms_run, capsys):
    report, elapsed = axioms_run
    ok = (
        report.passed
        and report.trials == 1000
        and report.details["inner_tables_per_measure"] == 100
        and elapsed < 10.0
    )
    _verdict(
        capsys, 1, ok,
        f"norm/homogeneity/max-additivity/order on 1000 measures x 100 tables, "
        f"homogeneity at 1e-12 and the rest exact: failures={len(report.failures)}, "
        f"{elapsed:.2f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 2. Functor laws: identity and composition, atom-exact
# ---------------------------------------------------------------------------


def test_criterion_02_functor_laws(functor_run, capsys):
    report, elapsed = functor_run
    by = report.details["failures_by_check"]
    ok = (
        report.passed
        and report.trials == 500
        and by["identity"] == 0
        and by["composition"] == 0
        and by["duality"] == 0
        and elapsed < 5.0
    )
    _verdict(
        capsys, 2, ok,
        f"identity/composition/duality atom-exact on 500 random chains "
        f"(supports up to 12): failures={len(report.failures)}, {elapsed:.2f}s < 5s",
    )


# ---------------------------------------------------------------------------
# 3. Pushforward support equals the image of the support
# ---------------------------------------------------------------------------


def test_criterion_03_support_image(functor_run, capsys):
    report, elapsed = functor_run
    ok = report.passed and report.details["failures_by_check"]["support_image"] == 0
    _verdict(
        capsys, 3, ok,
        f"supp(f*mu) = f(supp mu) on the same 500 chains: "
        f"mismatches={report.details['failures_by_check']['support_image']}",
    )


# ---------------------------------------------------------------------------
# 4. Preimage fibers are closed under max-plus combination
# ---------------------------------------------------------------------------


def test_criterion_04_preimage_convexity(convexity_run, capsys):
    report, elapsed = convexity_run
    by = report.details["failures_by_check"]
    cases = set(report.details["coefficient_cases"])
    ok = (
        report.passed
        and report.trials == 500
        and by["preimage"] == 0
        and {"alpha-bottom", "beta-bottom"} <= cases  # -inf coefficients covered
        and elapsed < 5.0
    )
    _verdict(
        capsys, 4, ok,
        f"combinations of sampled preimage members stay in the preimage, "
        f"atom-exact, 500 trials incl. bottom coefficients: "
        f"failures={len(report.failures)}, {elapsed:.2f}s < 5s",
    )


# ---------------------------------------------------------------------------
# 5. Support laws of combinations
# ---------------------------------------------------------------------------


def test_criterion_05_combination_support_laws(convexity_run, capsys):
    report, _ = convexity_run
    by = report.details["failures_by_check"]
    ok = (
        report.passed
        and by["support_subset"] == 0
        and by["support_union"] == 0
        and by["cardinality"] == 0
    )
    _verdict(
        capsys, 5, ok,
        f"support subset/union and cardinality-class laws on the same 500 "
        f"combinations: subset={by['support_subset']} union={by['support_union']} "
        f"card={by['cardinality']}",
    )


# ---------------------------------------------------------------------------
# 6. Dense approximation in the weak topology
# ---------------------------------------------------------------------------


def test_criterion_06_dense_approximation(density_run, capsys):
    report, elapsed = density_run
    demo = report.details["coarseness_demo"]
    ok = (
        report.passed
        and report.trials == 200
        and report.details["resolution_threshold"] == 0.005
        and set(report.details["epsilon_values"]) == {0.1, 0.01}
        and demo["raised"] is True
        and demo["worst_discrepancy"] >= demo["epsilon"]
        and elapsed < 10.0
    )
    _verdict(
        capsys, 6, ok,
        f"200 measures onto a 101-point grid under 1-Lipschitz tests at "
        f"eps in {{0.1, 0.01}} (threshold 0.005), coarseness raised on demo: "
        f"failures={len(report.failures)}, {elapsed:.2f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 7. Fiber-extremal tables: domination, attainment, integral bounds
# ---------------------------------------------------------------------------


def test_criterion_07_fiber_extremes(lemmas_run, capsys):
    report, elapsed = lemmas_run
    by = report.details["failures_by_check"]
    ok = (
        report.passed
        and report.trials == 500
        and by["dominated"] == 0
        and by["extreme_attained"] == 0
        and by["fiber_bounds"] == 0
        and elapsed < 5.0
    )
    _verdict(
        capsys, 7, ok,
        f"fiber inf/sup tables dominate and are attained, integrals of "
        f"single-fiber measures sit within the extremes (1e-12), 500 maps: "
        f"failures={len(report.failures)}, {elapsed:.2f}s < 5s",
    )


# ---------------------------------------------------------------------------
# 8. Near lifts along grid projections
# ---------------------------------------------------------------------------


def test_criterion_08_projection_lifts(openmap_run, capsys):
    report, elapsed = openmap_run
    by = report.details["failures_by_check"]
    ok = (
        report.passed
        and report.trials == 200
        and report.details["delta"] == 0.2
        and max(report.details["grid_sizes"]) <= 25
        and by["exact_pushforward"] == 0
        and by["displacement"] == 0
        and elapsed < 10.0
    )
    _verdict(
        capsys, 8, ok,
        f"lifts along 2-D grid projections (sizes {report.details['grid_sizes']}) "
        f"push forward exactly and move support by <= delta + pitch, 200 pairs "
        f"at delta=0.2: failures={len(report.failures)}, {elapsed:.2f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 9. Set-distance functional satisfies the membership axioms
# ---------------------------------------------------------------------------


def test_criterion_09_membership_axioms(kappa_run, capsys):
    report, elapsed = kappa_run
    cf = report.details["counterfeits"]
    const_axioms = cf["constant"]["axioms"]
    sq_axioms = cf["squared_distance"]["axioms"]
    distance_ok = report.passed and report.trials == 100
    const_ok = (
        const_axioms["K1"]["status"] == "fail"
        and const_axioms["K1"]["counterexample"] is not None
        and all(const_axioms[k]["status"] != "fail" for k in ("K2", "K3", "K4"))
    )
    sq_ok = (
        sq_axioms["K3"]["status"] == "fail"
        and sq_axioms["K3"]["counterexample"] is not None
        and all(sq_axioms[k]["status"] != "fail" for k in ("K1", "K2", "K4"))
    )
    ok = distance_ok and const_ok and sq_ok and elapsed < 5.0
    _verdict(
        capsys, 9, ok,
        f"distance-to-set passes K1-K4 at 1e-12 on 100 random spaces; the "
        f"constant candidate fails exactly K1 and the squared candidate "
        f"exactly K3, both with counterexamples: {elapsed:.2f}s < 5s",
    )


# ---------------------------------------------------------------------------
# 10. Counterfeit functionals are rejected by the axiom checker
# ---------------------------------------------------------------------------


def test_criterion_10_counterfeit_rejection(axioms_run, capsys):
    report, _ = axioms_run
    cf = report.details["counterfeits"]
    min_plus, summation = cf["min_plus"], cf["summation"]
    ok = (
        min_plus["passed"] is False
        and min_plus["trials_run"] <= 1000
        and min_plus["counterexample"]["axiom"] == "max-additivity"
        and summation["passed"] is False
        and summation["trials_run"] <= 1000
        and summation["counterexample"]["axiom"] == "norm"
    )
    _verdict(
        capsys, 10, ok,
        f"min-plus counterfeit rejected at trial {min_plus['trials_run']} "
        f"(max-additivity), summation counterfeit at trial "
        f"{summation['trials_run']} (norm), both within 1000",
    )


# ---------------------------------------------------------------------------
# 11. Deterministic reports and the full exit-code contract
# ---------------------------------------------------------------------------


def _run(args, cwd=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, cwd=cwd, env=dict(os.environ)
    )


def test_criterion_11_determinism_and_exit_codes(tmp_path, capsys):
    first = _run(["check", "axioms", "--trials", "100", "--seed", "42"])
    second = _run(["check", "axioms", "--trials", "100", "--seed", "42"])
    identical = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )

    # exercise every exit code end to end with real files
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps(
        {"space": "X", "atoms": [{"point": "a", "weight": 0.0}, {"point": "b", "weight": -1.0}]}
    ))
    table = tmp_path / "f.json"
    table.write_text(json.dumps({"space": "X", "values": {"a": 1.0, "b": 0.0}}))
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({"from": "X", "to": "Y", "assign": {"a": "u", "b": "u"}}))
    nu_bad = tmp_path / "nu.json"
    nu_bad.write_text(json.dumps(
        {"space": "Y", "atoms": [{"point": "u", "weight": 0.0}, {"point": "w", "weight": -2.0}]}
    ))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"space": "X", "atoms": [{"point": "a", "weight": 1.0}]}))

    code0 = _run(["integrate", "--measure", str(measure), "--function", str(table)]).returncode
    code1 = _run(["preimage-check", "--map", str(mapping), "--nu", str(nu_bad),
                  "--mu", str(measure)]).returncode
    code2 = _run(["integrate", "--measure", str(broken), "--function", str(table)]).returncode

    ok = identical and code0 == 0 and code1 == 1 and code2 == 2
    _verdict(
        capsys, 11, ok,
        f"check axioms --trials 100 --seed 42 twice byte-identical "
        f"({len(first.stdout)} bytes); exit codes exercised: "
        f"success={code0}, negative-result={code1}, malformed-input={code2}",
    )
