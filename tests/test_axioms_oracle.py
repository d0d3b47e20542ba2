"""The axiom checks against the per-table loops they replaced.

``ref_check_axioms`` spells ``check_axioms`` out one table at a time,
asking the functional only for the tables a law needs. Both must report
alike for the two counterfeits and for a true integral, at tolerances
that make the true integral pass and fail.

``ref_run_axioms`` spells the suite out one table at a time, with one
scalar integral per table. Both must print the same report, including
which trial, table and law each failure names, in settings where the
laws really fail: a zero tolerance (homogeneity rounds), a negative
tolerance (every homogeneity check fails), a generator whose ``eta``
draws come back negated (order preservation fails), alone and with a
zero tolerance, where homogeneity and order preservation fail in one
table, and measures whose weights all sit 1e-12 below a normalized
measure's (norm fails). Norm, max-additivity and order preservation
compare exactly; only homogeneity reads the tolerance. Max-additivity
fails in none of these settings: it holds exactly, and none of them
touches the joined tables.
"""

import json

import numpy as np
import pytest

from maxplus import (
    AxiomCheckReport,
    FunctionTable,
    IdempotentMeasure,
    check_axioms,
    min_plus_functional,
    suites,
    sum_functional,
)
from maxplus.rng import trial_rng
from maxplus.suites import (
    SuiteReport,
    _failure,
    _measure_dict,
    _plain_space,
)

# --- reference loops ----------------------------------------------------------


def ref_check_axioms(functional, space, trials, seed, tol=1e-12, name="functional"):
    n = len(space)
    for t in range(trials):
        rng = trial_rng(seed, t)
        phi_row = rng.uniform(-10.0, 10.0, n)
        psi_row = rng.uniform(-10.0, 10.0, n)
        lam = float(rng.uniform(-5.0, 5.0))
        phi = FunctionTable._trusted(space, phi_row)
        psi = FunctionTable._trusted(space, psi_row)

        got_norm = functional(FunctionTable._trusted(space, np.full(n, lam)))
        if got_norm != lam:
            return AxiomCheckReport(name, False, t + 1, {
                "axiom": "norm", "trial": t, "lambda": lam, "expected": lam, "actual": got_norm,
            })

        base = functional(phi)
        shifted = functional(FunctionTable._trusted(space, phi_row + lam))
        if not abs(shifted - (base + lam)) <= tol:
            return AxiomCheckReport(name, False, t + 1, {
                "axiom": "homogeneity", "trial": t, "lambda": lam, "phi": dict(phi.values),
                "expected": base + lam, "actual": shifted,
            })

        lhs = functional(FunctionTable._trusted(space, np.where(phi_row >= psi_row, phi_row, psi_row)))
        rhs = max(base, functional(psi))
        if lhs != rhs:
            return AxiomCheckReport(name, False, t + 1, {
                "axiom": "max-additivity", "trial": t, "phi": dict(phi.values),
                "psi": dict(psi.values), "expected": rhs, "actual": lhs,
            })
    return AxiomCheckReport(name, True, trials, None)



def ref_run_axioms(trials, seed, tol):
    report = SuiteReport("axioms", trials)
    space = _plain_space("A", 10)
    n = len(space)
    inner = 100

    for t in range(trials):
        rng = suites.trial_rng(seed, t)
        mu = suites._random_measure(rng, space)
        phis = rng.uniform(-10.0, 10.0, (inner, n)).tolist()
        psis = rng.uniform(-10.0, 10.0, (inner, n)).tolist()
        lams = rng.uniform(-5.0, 5.0, inner).tolist()
        etas = rng.uniform(0.0, 5.0, (inner, n)).tolist()
        inputs = {"measure": _measure_dict(mu), "trial": t}

        for i in range(inner):
            phi_row = phis[i]
            psi_row = psis[i]
            lam = lams[i]
            phi = FunctionTable._trusted(space, np.array(phi_row))
            psi = FunctionTable._trusted(space, np.array(psi_row))

            got = mu.integrate(FunctionTable._trusted(space, np.full(n, lam)))
            if got != lam:
                report.failures.append(_failure(t, seed, "norm", inputs, lam, got))
                break

            m_phi = mu.integrate(phi)
            shifted = FunctionTable._trusted(space, np.array([v + lam for v in phi_row]))
            got = mu.integrate(shifted)
            if not abs(got - (m_phi + lam)) <= tol:
                report.failures.append(_failure(t, seed, "homogeneity", inputs, m_phi + lam, got))
                break

            m_psi = mu.integrate(psi)
            joined = FunctionTable._trusted(
                space, np.array([a if a >= b else b for a, b in zip(phi_row, psi_row)])
            )
            got = mu.integrate(joined)
            want = max(m_phi, m_psi)
            if got != want:
                report.failures.append(_failure(t, seed, "max-additivity", inputs, want, got))
                break

            above = FunctionTable._trusted(space, np.array([a + e for a, e in zip(phi_row, etas[i])]))
            got = mu.integrate(above)
            if not got >= m_phi:
                report.failures.append(
                    _failure(t, seed, "order-preservation", inputs, f">= {m_phi}", got)
                )
                break

    witness = _plain_space("B", 2)
    flat = IdempotentMeasure(witness, {"p0": 0.0, "p1": 0.0})
    two = IdempotentMeasure(witness, {"p0": 0.0, "p1": -1.0})
    min_plus = check_axioms(min_plus_functional(flat), witness, 1000, seed, tol, name="min-plus")
    summation = check_axioms(sum_functional(two), witness, 1000, seed, tol, name="summation")
    report.details["counterfeits"] = {
        "min_plus": min_plus.as_dict(),
        "summation": summation.as_dict(),
    }
    if min_plus.passed:
        report.failures.append(
            _failure(-1, seed, "counterfeit-min-plus", {"name": "min-plus"},
                     "rejected", "passed all trials")
        )
    if summation.passed:
        report.failures.append(
            _failure(-1, seed, "counterfeit-summation", {"name": "summation"},
                     "rejected", "passed all trials")
        )
    report.details["inner_tables_per_measure"] = inner
    return report


# --- comparison ---------------------------------------------------------------------


class NegatedEta:
    """A generator whose ``uniform(0.0, 5.0, size)`` draws come back negated."""

    def __init__(self, rng):
        self._rng = rng

    def uniform(self, lo, hi, size=None):
        draw = self._rng.uniform(lo, hi, size)
        return -draw if (lo, hi) == (0.0, 5.0) and size is not None else draw

    def __getattr__(self, name):
        return getattr(self._rng, name)


def lower_every_weight(monkeypatch):
    """Measures whose weights all sit 1e-12 below a normalized measure's."""
    real = suites._random_measure

    def random_measure(rng, space):
        mu = real(rng, space)
        return IdempotentMeasure._trusted(space, mu._idx, mu._w - 1e-12)
    monkeypatch.setattr(suites, "_random_measure", random_measure)


def _text(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize(
    "setting, tol, laws",
    [
        ("zero-tolerance", 0.0, {"homogeneity"}),
        ("negative-tolerance", -1e-300, {"homogeneity"}),
        ("negated-eta", 1e-12, {"order-preservation"}),
        ("negated-eta", 0.0, {"homogeneity", "order-preservation"}),
        ("lowered-weights", 1.0, {"norm"}),
    ],
)
def test_batched_suite_reports_like_the_table_loop(monkeypatch, seed, setting, tol, laws):
    if setting == "negated-eta":
        real = suites.trial_rng
        monkeypatch.setattr(suites, "trial_rng", lambda s, t: NegatedEta(real(s, t)))
    if setting == "lowered-weights":
        lower_every_weight(monkeypatch)
    want = ref_run_axioms(200, seed, tol)
    got = suites.run_axioms(200, seed, tol)
    assert _text(got) == _text(want)
    assert {f["check"] for f in got.failures} == laws


WITNESS = _plain_space("B", 2)
FUNCTIONALS = {
    "min-plus": min_plus_functional(IdempotentMeasure(WITNESS, {"p0": 0.0, "p1": 0.0})),
    "summation": sum_functional(IdempotentMeasure(WITNESS, {"p0": 0.0, "p1": -1.0})),
    "integral": IdempotentMeasure(WITNESS, {"p0": 0.0, "p1": -1.0}).integrate,
}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("tol", [-1.0, 0.0, 1e-12])
@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
def test_check_axioms_reports_like_the_table_loop(functional, tol, seed):
    f = FUNCTIONALS[functional]
    want = ref_check_axioms(f, WITNESS, 200, seed, tol, name=functional)
    got = check_axioms(f, WITNESS, 200, seed, tol, name=functional)
    assert json.dumps(got.as_dict(), sort_keys=True) == json.dumps(want.as_dict(), sort_keys=True)
