"""The batched ``axioms`` suite against the per-table loop it replaced.

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
    FunctionTable,
    IdempotentMeasure,
    check_axioms,
    constant_table,
    min_plus_functional,
    suites,
    sum_functional,
)
from maxplus.suites import (
    SuiteReport,
    _failure,
    _measure_dict,
    _plain_space,
)

# --- reference loop -----------------------------------------------------------


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

            got = mu.integrate(constant_table(space, lam))
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
