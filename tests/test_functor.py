"""Pushforward functor, preimage fibers, extremal lifts."""

import pytest
from hypothesis import given, strategies as st

from maxplus import (
    EmptyFiberError,
    FiberBoundReport,
    FunctionTable,
    GroundSpace,
    IdempotentMeasure,
    LiftImpossibleError,
    Point,
    PointMap,
    SpaceMismatchError,
    check_fiber_bounds,
    compose,
    fiber_inf,
    fiber_sup,
    identity_map,
    lift_toward,
    preimage_contains,
    pullback,
    pushforward,
    sample_preimage,
    support_displacement,
    support_image_check,
    uniform_grid_1d,
)
from tests.conftest import measures_on

X = GroundSpace("X", [Point("a"), Point("b"), Point("c")])
Y = GroundSpace("Y", [Point("u"), Point("v")])
F = PointMap(X, Y, {"a": "u", "b": "u", "c": "v"})


# ---------------------------------------------------------------------------
# Pushforward
# ---------------------------------------------------------------------------


def test_pushforward_oracle():
    # fiber over u: max(0, -2) = 0; fiber over v: -1
    mu = IdempotentMeasure(X, {"a": 0.0, "b": -2.0, "c": -1.0})
    nu = pushforward(F, mu)
    assert dict(nu.atoms()) == {"u": 0.0, "v": -1.0}


def test_pushforward_space_mismatch():
    nu = IdempotentMeasure(Y, {"u": 0.0})
    with pytest.raises(SpaceMismatchError):
        pushforward(F, nu)


@given(measures_on(X))
def test_pushforward_identity_law(mu):
    assert pushforward(identity_map(X), mu) == mu


@given(measures_on(X))
def test_pushforward_composition_law(mu):
    w_space = GroundSpace("W", [Point("w0"), Point("w1")])
    g = PointMap(Y, w_space, {"u": "w1", "v": "w0"})
    assert pushforward(compose(g, F), mu) == pushforward(g, pushforward(F, mu))


@given(measures_on(X))
def test_pushforward_support_is_image_of_support(mu):
    nu = pushforward(F, mu)
    assert set(nu.support) == {F(x) for x in mu.support}
    assert support_image_check(F, mu)


@given(measures_on(X))
def test_pushforward_duality(mu):
    # I(f_* mu)(psi) = I(mu)(psi o f), exactly: both sides take the same
    # max over the same finite collection of sums.
    psi = FunctionTable(Y, {"u": 3.25, "v": -1.5})
    assert pushforward(F, mu).integrate(psi) == mu.integrate(pullback(psi, F))


# ---------------------------------------------------------------------------
# Preimage membership and lifts
# ---------------------------------------------------------------------------


def test_preimage_contains_oracle():
    nu = IdempotentMeasure(Y, {"u": 0.0, "v": -1.0})
    inside = IdempotentMeasure(X, {"a": 0.0, "b": -2.0, "c": -1.0})
    outside = IdempotentMeasure(X, {"a": 0.0, "b": -2.0, "c": -0.5})
    assert preimage_contains(F, nu, inside)
    assert not preimage_contains(F, nu, outside)


def test_preimage_contains_tolerance():
    nu = IdempotentMeasure(Y, {"u": 0.0, "v": -1.0})
    nearly = IdempotentMeasure(X, {"a": 0.0, "c": -1.0 + 1e-13})
    assert not preimage_contains(F, nu, nearly)
    assert preimage_contains(F, nu, nearly, tol=1e-12)


def test_lift_impossible_without_fiber():
    z_space = GroundSpace("Z", [Point("z0"), Point("z1")])
    g = PointMap(X, z_space, {"a": "z0", "b": "z0", "c": "z0"})
    nu = IdempotentMeasure(z_space, {"z0": 0.0, "z1": -1.0})
    with pytest.raises(LiftImpossibleError):
        sample_preimage(g, nu, seed=0)
    with pytest.raises(LiftImpossibleError):
        lift_toward(g, IdempotentMeasure.dirac(X, "a"), nu)


@given(st.integers(0, 1000))
def test_sample_preimage_members_and_determinism(seed):
    nu = IdempotentMeasure(Y, {"u": 0.0, "v": -1.0})
    mu = sample_preimage(F, nu, seed=seed)
    assert preimage_contains(F, nu, mu)
    assert sample_preimage(F, nu, seed=seed) == mu


def test_sample_preimages_vary_with_seed():
    nu = IdempotentMeasure(Y, {"u": 0.0, "v": -1.0})
    draws = {tuple(sample_preimage(F, nu, seed=s).atoms()) for s in range(40)}
    assert len(draws) > 1


# ---------------------------------------------------------------------------
# Fiber extremes
# ---------------------------------------------------------------------------


def test_fiber_extremes_oracle():
    phi = FunctionTable(X, {"a": 3.0, "b": 4.0, "c": -1.0})
    assert fiber_sup(F, phi).values == {"u": 4.0, "v": -1.0}
    assert fiber_inf(F, phi).values == {"u": 3.0, "v": -1.0}


def test_fiber_extremes_need_nonempty_fibers():
    z_space = GroundSpace("Z", [Point("z0"), Point("z1")])
    g = PointMap(X, z_space, {"a": "z0", "b": "z0", "c": "z0"})
    phi = FunctionTable(X, {"a": 1.0, "b": 2.0, "c": 3.0})
    with pytest.raises(EmptyFiberError):
        fiber_sup(g, phi)


def test_fiber_extremes_sandwich_pullbacks():
    phi = FunctionTable(X, {"a": 3.0, "b": 4.0, "c": -1.0})
    low = pullback(fiber_inf(F, phi), F)
    high = pullback(fiber_sup(F, phi), F)
    assert all(low(x) <= phi(x) <= high(x) for x in X.point_ids)


def test_check_fiber_bounds_oracle():
    # measure concentrated over one target point; integral sits between the
    # fiber extremes of the test function
    nu_source = IdempotentMeasure(X, {"a": -0.5, "b": 0.0})
    phi = FunctionTable(X, {"a": 4.0, "b": 3.0, "c": -10.0})
    report = check_fiber_bounds(F, "u", nu_source, phi)
    assert isinstance(report, FiberBoundReport)
    assert report.applicable and report.passed
    assert report.lower == 3.0 and report.upper == 4.0
    assert report.integral == 3.5
    assert report.point == "u"


def test_check_fiber_bounds_inapplicable_when_spread():
    spread = IdempotentMeasure(X, {"a": 0.0, "c": -1.0})  # pushes onto u and v
    phi = FunctionTable(X, {"a": 1.0, "b": 2.0, "c": 3.0})
    report = check_fiber_bounds(F, "u", spread, phi)
    assert not report.applicable


# ---------------------------------------------------------------------------
# Geometry-aware lift
# ---------------------------------------------------------------------------


def test_lift_toward_oracle_on_grid():
    # 5-point grid projecting to a single target; base sits at 0.5, the
    # target atom should come back at the grid point nearest the base.
    grid = uniform_grid_1d("G", 5)
    one = GroundSpace("O", [Point("o")])
    proj = PointMap(grid, one, {p: "o" for p in grid.point_ids})
    base = IdempotentMeasure.dirac(grid, "g2")  # 0.5
    target = IdempotentMeasure.dirac(one, "o")
    lifted = lift_toward(proj, base, target)
    assert lifted == IdempotentMeasure.dirac(grid, "g2")
    assert support_displacement(base, lifted) == 0.0


def test_lift_toward_tie_breaks_to_earliest():
    # 0.25 and 0.75 are equidistant from base at 0.5 after excluding g2;
    # the earlier point wins.
    pts = [Point("g0", (0.25,)), Point("g1", (0.75,)), Point("mid", (0.5,))]
    grid = GroundSpace("G", pts)
    one = GroundSpace("O", [Point("o"), Point("skip")])
    proj = PointMap(grid, one, {"g0": "o", "g1": "o", "mid": "skip"})
    base = IdempotentMeasure.dirac(grid, "mid")
    target = IdempotentMeasure.dirac(one, "o")
    lifted = lift_toward(proj, base, target)
    assert lifted.support == ("g0",)


def test_lift_toward_without_coords_uses_earliest():
    one = GroundSpace("O", [Point("o")])
    proj = PointMap(X, one, {"a": "o", "b": "o", "c": "o"})
    base = IdempotentMeasure.dirac(X, "b")
    target = IdempotentMeasure.dirac(one, "o")
    lifted = lift_toward(proj, base, target)
    assert lifted.support == ("a",)


def test_lift_toward_keeps_weights_and_pushes_back():
    grid = uniform_grid_1d("G", 5)
    two = GroundSpace("T", [Point("s"), Point("t")])
    proj = PointMap(
        grid, two, {"g0": "s", "g1": "s", "g2": "s", "g3": "t", "g4": "t"}
    )
    base = IdempotentMeasure(grid, {"g1": 0.0, "g3": -1.0})
    target = IdempotentMeasure(two, {"s": 0.0, "t": -2.0})
    lifted = lift_toward(proj, base, target)
    assert pushforward(proj, lifted) == target
    assert dict(lifted.atoms()) == {"g1": 0.0, "g3": -2.0}


def test_support_displacement_one_sided():
    grid = uniform_grid_1d("G", 5)
    wide = IdempotentMeasure(grid, {"g0": 0.0, "g4": 0.0})
    narrow = IdempotentMeasure.dirac(grid, "g0")
    # every atom of narrow is close to wide ...
    assert support_displacement(wide, narrow) == 0.0
    # ... but not vice versa
    assert support_displacement(narrow, wide) == 1.0
