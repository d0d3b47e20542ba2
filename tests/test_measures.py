"""Idempotent measures: normalization, integration, combination, axioms."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxplus import (
    CoefficientError,
    FunctionTable,
    GroundSpace,
    IdempotentMeasure,
    NoMassError,
    NormAxiomError,
    Point,
    UnknownPointError,
    check_axioms,
    combine,
    make_measure,
    max_weight_gap,
    min_plus_functional,
    sum_functional,
)
from maxplus.errors import ScalarError
from maxplus.measures import _integrate_rows
from tests.conftest import KERNELS, finite_weights, kernel_path, measures_on, tables_on

SPACE = GroundSpace("X", [Point("a"), Point("b"), Point("c")])


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_measure_requires_norm():
    with pytest.raises(NormAxiomError):
        IdempotentMeasure(SPACE, {"a": -1.0, "b": -2.0})
    with pytest.raises(NormAxiomError):
        IdempotentMeasure(SPACE, {"a": 0.5})


def test_measure_requires_mass():
    with pytest.raises(NoMassError):
        IdempotentMeasure(SPACE, {})
    with pytest.raises(NoMassError):
        IdempotentMeasure(SPACE, {"a": -math.inf})


def test_measure_drops_bottom_atoms():
    mu = IdempotentMeasure(SPACE, {"a": 0.0, "b": -math.inf})
    assert mu.support == ("a",)
    assert mu.weight("b") == -math.inf


def test_measure_rejects_unknown_point():
    with pytest.raises(UnknownPointError):
        IdempotentMeasure(SPACE, {"zz": 0.0})


def test_accessors_return_python_floats():
    mu = IdempotentMeasure(SPACE, {"a": 0.0, "b": -2})
    phi = FunctionTable(SPACE, {"a": 1.0, "b": 10.0, "c": 0.0})
    values = [mu.integrate(phi), mu(phi), mu.weight("a"), mu.weight("c")]
    values += [w for _, w in mu.atoms()]
    assert all(type(v) is float for v in values)
    assert all(type(p) is str for p in mu.support)


def test_from_weights_normalizes():
    mu = IdempotentMeasure.from_weights(SPACE, {"a": -3.0, "b": -1.0})
    assert mu.weight("b") == 0.0
    assert mu.weight("a") == -2.0


def test_dirac():
    mu = IdempotentMeasure.dirac(SPACE, "b")
    assert mu.support == ("b",)
    assert len(mu) == 1
    assert mu.weight("b") == 0.0


def test_support_in_space_order():
    mu = IdempotentMeasure(SPACE, {"c": -1.0, "a": 0.0})
    assert mu.support == ("a", "c")


def test_make_measure_merges_duplicates():
    mu = make_measure(SPACE, [("a", 0.0), ("a", -2.0), ("b", -1.0)])
    assert mu.weight("a") == 0.0
    assert mu.weight("b") == -1.0


def test_make_measure_can_normalize():
    mu = make_measure(SPACE, [("a", -4.0), ("b", -6.0)], normalize=True)
    assert mu.weight("a") == 0.0 and mu.weight("b") == -2.0


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def test_integrate_oracle():
    # max(0 + 1, -2 + 10, -1 + 0) = 8
    mu = IdempotentMeasure(SPACE, {"a": 0.0, "b": -2.0, "c": -1.0})
    phi = FunctionTable(SPACE, {"a": 1.0, "b": 10.0, "c": 0.0})
    assert mu.integrate(phi) == 8.0
    assert mu(phi) == 8.0  # __call__ alias


def test_integrate_dirac_reads_table():
    mu = IdempotentMeasure.dirac(SPACE, "c")
    phi = FunctionTable(SPACE, {"a": 1.0, "b": 2.0, "c": 7.5})
    assert mu.integrate(phi) == 7.5


@given(measures_on(SPACE), tables_on(SPACE))
def test_integral_attained_on_support(mu, phi):
    # The integral is the max over support, hence attained by some atom.
    val = mu.integrate(phi)
    assert val in [mu.weight(x) + phi(x) for x in mu.support]


@given(measures_on(SPACE), tables_on(SPACE), tables_on(SPACE))
def test_integral_max_additive_exact(mu, phi, psi):
    # I(max(phi, psi)) = max(I(phi), I(psi)) holds bit-for-bit: max
    # introduces no rounding.
    lhs = mu.integrate(FunctionTable._trusted(SPACE, np.where(phi._v >= psi._v, phi._v, psi._v)))
    rhs = max(mu.integrate(phi), mu.integrate(psi))
    assert lhs == rhs


@given(measures_on(SPACE), tables_on(SPACE), st.floats(-100, 100))
def test_integral_shift_homogeneous(mu, phi, lam):
    # I(lam + phi) = lam + I(phi) up to one rounding on each side.
    lhs = mu.integrate(FunctionTable._trusted(SPACE, phi._v + lam))
    rhs = lam + mu.integrate(phi)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(measures_on(SPACE), tables_on(SPACE), tables_on(SPACE))
def test_integral_order_preserving(mu, phi, psi):
    dominating = FunctionTable._trusted(SPACE, np.maximum(phi._v, psi._v))  # >= phi pointwise
    assert mu.integrate(phi) <= mu.integrate(dominating)


def test_norm_axiom_via_zero_table():
    mu = IdempotentMeasure(SPACE, {"a": -5.0, "b": 0.0})
    zero = FunctionTable(SPACE, {"a": 0.0, "b": 0.0, "c": 0.0})
    assert mu.integrate(zero) == 0.0


# ---------------------------------------------------------------------------
# Convex combination
# ---------------------------------------------------------------------------


def test_combine_oracle():
    # max(-1 + delta_a, 0 + delta_b) has weights {a: -1, b: 0}
    da = IdempotentMeasure.dirac(SPACE, "a")
    db = IdempotentMeasure.dirac(SPACE, "b")
    mix = combine(-1.0, da, 0.0, db)
    assert dict(mix.atoms()) == {"a": -1.0, "b": 0.0}


DIRAC_A = IdempotentMeasure.dirac(SPACE, "a")


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: IdempotentMeasure(SPACE, {"a": 0.0, "b": bad}),
        lambda bad: IdempotentMeasure.from_weights(SPACE, {"a": bad, "b": 0.0}),
        lambda bad: make_measure(SPACE, [("a", 0.0), ("b", bad)]),
        lambda bad: combine(bad, DIRAC_A, 0.0, DIRAC_A),
        lambda bad: combine(0.0, DIRAC_A, bad, DIRAC_A),
    ],
    ids=["init", "from_weights", "make_measure", "alpha", "beta"],
)
@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "not a max-plus scalar: True"),
        (False, "not a max-plus scalar: False"),
        ("-1.0", "not a max-plus scalar: '-1.0'"),
        (None, "not a max-plus scalar: None"),
        (math.nan, "must be finite or -inf"),
        (math.inf, "must be finite or -inf"),
        (10**400, "out of float range"),
    ],
    ids=["true", "false", "string", "none", "nan", "plus-inf", "int-overflow"],
)
def test_weights_and_coefficients_share_one_scalar_rule(build, bad, message):
    with pytest.raises(ScalarError, match=message):
        build(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: IdempotentMeasure(SPACE, {"a": 0.0, "b": bad}),
        lambda bad: IdempotentMeasure.from_weights(SPACE, {"a": -1.0, "b": bad}),
        lambda bad: make_measure(SPACE, [("a", 0.0), ("b", bad), ("c", math.nan)]),
    ],
    ids=["init", "from_weights", "make_measure"],
)
@pytest.mark.parametrize(
    "bad, message",
    [
        (math.nan, "max-plus scalar must be finite or -inf, got nan"),
        (math.inf, "max-plus scalar must be finite or -inf, got inf"),
        (10**400, "max-plus scalar out of float range"),
        (None, "not a max-plus scalar: None"),
    ],
    ids=["nan", "plus-inf", "int-overflow", "none"],
)
def test_bad_weight_names_its_atom(build, bad, message):
    with pytest.raises(ScalarError) as exc:
        build(bad)
    assert str(exc.value).startswith(f"measure atom 'b': {message}")


BAD_ATOMS = {  # one bad atom each, with the error it raises on its own
    "unknown-point": (("zz", 0.0), UnknownPointError, "unknown point 'zz'"),
    "nan": (("a", math.nan), ScalarError, "must be finite or -inf, got nan"),
    "string": (("b", "-1.0"), ScalarError, "not a max-plus scalar: '-1.0'"),
}


@pytest.mark.parametrize("first, second", [
    ("unknown-point", "nan"), ("nan", "unknown-point"),
    ("unknown-point", "string"), ("string", "unknown-point"),
    ("nan", "string"), ("string", "nan"),
])
def test_earliest_bad_atom_decides_the_error(first, second):
    atoms = [("c", 0.0), BAD_ATOMS[first][0], ("a", -1.0), BAD_ATOMS[second][0]]
    _, error, message = BAD_ATOMS[first]
    with pytest.raises(error, match=message):
        make_measure(SPACE, atoms)


@pytest.mark.parametrize("atom, error, message", [
    ({"point": "zz", "weight": "abc"}, ScalarError, "not a max-plus scalar: 'abc'"),
    ({"point": "zz", "weight": math.nan}, UnknownPointError, "unknown point 'zz'"),
    ({"point": "zz", "weight": True}, ScalarError, "not a max-plus scalar: True"),
])
def test_within_one_json_atom_the_weight_reader_comes_first(atom, error, message):
    # a bad JSON weight beats an unknown point, which beats a NaN or +inf float
    from maxplus.jsonio import read_measure

    obj = {"space": "X", "atoms": [{"point": "a", "weight": 0.0}, atom]}
    with pytest.raises(error, match=message):
        read_measure(obj).build(SPACE)


def test_combine_requires_unit_peak_coefficient():
    da = IdempotentMeasure.dirac(SPACE, "a")
    db = IdempotentMeasure.dirac(SPACE, "b")
    with pytest.raises(CoefficientError):
        combine(-1.0, da, -2.0, db)
    with pytest.raises(CoefficientError):
        combine(0.5, da, 0.0, db)


def test_combine_bottom_coefficient_returns_other():
    da = IdempotentMeasure.dirac(SPACE, "a")
    db = IdempotentMeasure.dirac(SPACE, "b")
    assert combine(-math.inf, da, 0.0, db) == db
    assert combine(0.0, da, -math.inf, db) == da


@given(measures_on(SPACE), measures_on(SPACE))
def test_combine_idempotent_on_equal_arguments(mu, _nu):
    assert combine(0.0, mu, 0.0, mu) == mu


@given(measures_on(SPACE), measures_on(SPACE), st.floats(-20, 0))
def test_combine_support_union_for_finite_coeffs(mu, nu, alpha):
    mix = combine(alpha, mu, 0.0, nu)
    assert set(mix.support) == set(mu.support) | set(nu.support)


@given(measures_on(SPACE), measures_on(SPACE), tables_on(SPACE), st.floats(-20, 0))
@example(
    IdempotentMeasure(SPACE, {"a": -1023.0, "b": 0.0}),
    IdempotentMeasure(SPACE, {"b": 0.0}),
    FunctionTable(SPACE, {"a": 1025.0, "b": 0.0, "c": 0.0}),
    -1.5358233473212977,
)
def test_combine_is_linear_under_integration(mu, nu, phi, alpha):
    # I(alpha mu (+) 0 nu)(phi) = max(alpha + I(mu)(phi), I(nu)(phi)).
    # Bit-exact only in the evaluation order of the left side, (alpha + w) + phi:
    # rounding is monotone, so it commutes with max.
    mix = combine(alpha, mu, 0.0, nu)
    lhs = mix.integrate(phi)
    same_order = max(
        max((alpha + w) + phi(x) for x, w in mu.atoms()),
        max((0.0 + w) + phi(x) for x, w in nu.atoms()),
    )
    assert lhs == same_order
    # Regrouped as alpha + (w + phi), each side rounds twice, each time by at
    # most half an ulp of a value no larger than |alpha| + |w| + |phi|.
    rhs = max(alpha + mu.integrate(phi), nu.integrate(phi))
    scale = abs(alpha) + max(abs(w) for _, w in [*mu.atoms(), *nu.atoms()])
    scale += max(abs(v) for v in phi.values.values())
    assert abs(lhs - rhs) <= 2 * sys.float_info.epsilon * scale


def test_from_weights_drops_weight_shifted_to_bottom():
    # -1.7e308 - 1.7e308 rounds to -inf: that atom is bottom, not stored
    mu = IdempotentMeasure.from_weights(SPACE, {"a": 1.7e308, "b": -1.7e308})
    assert dict(mu.atoms()) == {"a": 0.0}


def test_combine_drops_weight_shifted_to_bottom():
    mu = IdempotentMeasure(SPACE, {"a": -1e308, "b": 0.0})
    nu = IdempotentMeasure(SPACE, {"b": 0.0})
    assert dict(combine(-1e308, mu, 0.0, nu).atoms()) == {"b": 0.0}


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


full_range = st.floats(-sys.float_info.max, sys.float_info.max)
full_weights = st.dictionaries(st.sampled_from(["a", "b", "c"]), full_range, min_size=1)


@given(full_weights, full_weights, st.floats(-sys.float_info.max, 0.0))
def test_invariants_hold_over_the_full_float_range(raw_mu, raw_nu, alpha):
    from maxplus.jsonio import measure_to_json

    for kernel in KERNELS:
        with kernel_path(kernel):
            mu = IdempotentMeasure.from_weights(SPACE, raw_mu)
            nu = make_measure(SPACE, raw_nu.items(), normalize=True)
            combos = (combine(alpha, mu, 0.0, nu), combine(0.0, mu, alpha, nu))
        for m in (mu, nu, *combos):
            weights = [w for _, w in m.atoms()]
            assert max(weights) == 0.0
            assert all(math.isfinite(w) for w in weights)
            json.loads(measure_to_json(m), parse_constant=_reject_constant)


@given(full_weights, st.lists(full_range, min_size=3, max_size=3))
@example({"a": 0.0, "b": -sys.float_info.max}, [-sys.float_info.max, -sys.float_info.max, 0.0])
def test_integral_is_finite_and_at_least_the_peak_value(raw, row):
    # the peak atom adds exactly 0.0 to a finite value, so the integral has no bottom branch
    mu = IdempotentMeasure.from_weights(SPACE, raw)
    phi = FunctionTable(SPACE, dict(zip("abc", row)))
    peak = next(pid for pid, w in mu.atoms() if w == 0.0)
    for kernel in KERNELS:
        with kernel_path(kernel):
            got = mu.integrate(phi)
        assert type(got) is float and math.isfinite(got)
        assert got >= phi(peak)


def ref_integral(mu, row):
    """The integral as a plain loop: the first atom with the largest sum wins."""
    values = dict(zip(mu.space.point_ids, row))
    best = None
    for pid, w in mu.atoms():
        s = w + values[pid]
        if best is None or s > best:
            best = s
    return best


def ref_best(pairs):
    """Max-merge (point, weight) pairs with a plain dict: the first of equal weights wins."""
    out = {}
    for pid, w in pairs:
        if w != -math.inf and (pid not in out or w > out[pid]):
            out[pid] = w
    return out


def ref_merge(pairs):
    out = ref_best(pairs)
    return [(p, out[p].hex()) for p in sorted(out, key=SPACE.index)]


def bits(mu):
    return [(p, w.hex()) for p, w in mu.atoms()]


signed_weights = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -math.inf]), st.floats(-10.0, 0.0))
atom_lists = st.lists(st.tuples(st.sampled_from("abc"), signed_weights), min_size=1, max_size=8)


@given(atom_lists)
@example([("b", -0.0), ("a", -3.0), ("b", 0.0)])  # a duplicate point: +0.0 and -0.0 tie
@example([("b", 0.0), ("b", -0.0), ("c", -0.0)])
def test_make_measure_matches_a_reference_merge(pairs):
    if max(w for _, w in pairs) != 0.0:
        pairs = pairs + [("c", 0.0)]
    for kernel in KERNELS:
        with kernel_path(kernel):
            assert bits(make_measure(SPACE, pairs)) == ref_merge(pairs)


def ref_normalized(pairs):
    """Max-merge, then subtract the peak: the first maximal weight by first appearance."""
    out = ref_best(pairs)
    peak = max(out.values())
    shifted = {p: w - peak for p, w in out.items()}
    return [(p, shifted[p].hex()) for p in sorted(shifted, key=SPACE.index) if shifted[p] != -math.inf]


@given(st.lists(st.tuples(st.sampled_from("abc"), st.one_of(signed_weights, full_range)),
                min_size=1, max_size=8).filter(lambda ps: max(w for _, w in ps) > -math.inf))
@example([("b", 0.0), ("a", -0.0)])  # b's +0.0 is the peak: a keeps -0.0
@example([("a", -0.0), ("b", 0.0)])  # a's -0.0 is the peak: both zeros become +0.0
@example([("a", -math.inf), ("b", 0.0), ("a", -0.0)])  # a bottom atom does not make a first
@example([("a", 1.7e308), ("b", -1.7e308)])  # the shift rounds b to -inf
def test_normalize_matches_a_reference(pairs):
    for kernel in KERNELS:
        with kernel_path(kernel):
            assert bits(make_measure(SPACE, pairs, normalize=True)) == ref_normalized(pairs)


@given(measures_on(SPACE), measures_on(SPACE), st.sampled_from([0.0, -0.0]),
       st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-20.0, 0.0)))
@example(  # -0.0 + -0.0 on the mu side ties 0.0 + 0.0 on the nu side: mu comes first
    IdempotentMeasure(SPACE, {"a": -0.0}), IdempotentMeasure(SPACE, {"a": 0.0}), -0.0, 0.0,
)
@example(
    IdempotentMeasure(SPACE, {"a": 0.0, "b": -1.0}),
    IdempotentMeasure(SPACE, {"a": -0.0, "b": -1.0}), 0.0, -0.0,
)
def test_combine_matches_a_reference_merge(mu, nu, alpha, beta):
    # either coefficient may take the zero; the other is at most zero
    for a, b in ((alpha, beta), (beta, alpha)):
        shifted = [(p, a + w) for p, w in mu.atoms()] + [(p, b + w) for p, w in nu.atoms()]
        for kernel in KERNELS:
            with kernel_path(kernel):
                assert bits(combine(a, mu, b, nu)) == ref_merge(shifted)


# ids out of sorted order: the batch kernel must follow the space's point order
ROW_IDS = ["c", "a", "d", "b"]
ROW_SPACE = GroundSpace("R", [Point(p) for p in ROW_IDS])
SIGNED_ZERO_MEASURE = IdempotentMeasure.from_weights(ROW_SPACE, {"a": 0.0, "b": -0.0})
row_measures = st.one_of(
    st.dictionaries(st.sampled_from(ROW_IDS), full_range, min_size=1).map(
        lambda raw: IdempotentMeasure.from_weights(ROW_SPACE, raw)
    ),
    st.just(SIGNED_ZERO_MEASURE),
)
table_rows = st.lists(st.lists(full_range, min_size=4, max_size=4), min_size=1, max_size=8)


@given(row_measures, table_rows)
@example(SIGNED_ZERO_MEASURE, [[-0.0] * 4])  # atoms a and b tie at +0.0 and -0.0
@example(
    IdempotentMeasure.from_weights(ROW_SPACE, {"c": -1e308, "a": 0.0}),
    [[-1e308, -1e308, 0.0, 0.0]],  # the sum at c rounds to -inf
)
@example(
    IdempotentMeasure.from_weights(ROW_SPACE, {"a": 0.0, "b": -1.0}),
    [[1.0, 2.0, 3.0, 4.0]],  # 3.0 in point order, 1.0 in sorted-id order
)
def test_integrate_rows_matches_integrate(mu, rows):
    # Bit-identical to the scalar integral, zeros included: both take the
    # first maximal atom, so a tie between +0.0 and -0.0 keeps the earlier.
    got = _integrate_rows(mu, np.array(rows, dtype=np.float64))
    assert got.shape == (len(rows),)
    for value, row in zip(got.tolist(), rows):
        phi = FunctionTable(ROW_SPACE, dict(zip(ROW_IDS, row)))
        want = ref_integral(mu, row).hex()
        for kernel in KERNELS:
            with kernel_path(kernel):
                assert mu.integrate(phi).hex() == want
        assert value.hex() == want


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def test_measure_equal_and_gap():
    mu = IdempotentMeasure(SPACE, {"a": 0.0, "b": -1.0})
    nu = IdempotentMeasure(SPACE, {"a": 0.0, "b": -1.0 + 1e-13})
    assert max_weight_gap(mu, nu) == pytest.approx(1e-13, abs=1e-15)


def test_gap_infinite_on_support_mismatch():
    mu = IdempotentMeasure(SPACE, {"a": 0.0})
    nu = IdempotentMeasure(SPACE, {"a": 0.0, "b": -1.0})
    assert max_weight_gap(mu, nu) == math.inf


# ---------------------------------------------------------------------------
# Axiom checker and counterfeit functionals
# ---------------------------------------------------------------------------


def test_check_axioms_accepts_true_integral():
    mu = IdempotentMeasure(SPACE, {"a": 0.0, "b": -2.0})
    report = check_axioms(mu.integrate, SPACE, trials=200, seed=7)
    assert report.passed
    assert report.trials_run == 200
    assert report.counterexample is None


def test_min_plus_counterfeit_fails_max_additivity():
    flat_space = GroundSpace("B", [Point("p0"), Point("p1")])
    # all-zero weights: the norm and homogeneity checks pass exactly, so the
    # failing axiom is pinned to max-additivity.
    mu = IdempotentMeasure(flat_space, {"p0": 0.0, "p1": 0.0})
    report = check_axioms(min_plus_functional(mu), flat_space, trials=1000, seed=3)
    assert not report.passed
    assert report.counterexample["axiom"] == "max-additivity"
    assert report.trials_run <= 1000


def test_sum_counterfeit_fails_norm():
    flat_space = GroundSpace("B", [Point("p0"), Point("p1")])
    mu = IdempotentMeasure(flat_space, {"p0": 0.0, "p1": -1.0})
    report = check_axioms(sum_functional(mu), flat_space, trials=1000, seed=3)
    assert not report.passed
    assert report.counterexample["axiom"] == "norm"


def test_check_axioms_report_shape():
    mu = IdempotentMeasure(SPACE, {"a": 0.0})
    report = check_axioms(mu.integrate, SPACE, trials=5, seed=0, name="dirac-check")
    d = report.as_dict()
    assert d["name"] == "dirac-check"
    assert d["passed"] is True
    assert d["trials_run"] == 5
