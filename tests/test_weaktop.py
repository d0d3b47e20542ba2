"""Weak neighborhoods and approximation on dense subsets."""

import pytest
from hypothesis import given, strategies as st

from maxplus import (
    DenseSetTooCoarseError,
    FunctionTable,
    GroundSpace,
    IdempotentMeasure,
    Point,
    UnknownPointError,
    ValidationError,
    WeakNeighborhood,
    approximate_on_dense,
)
from tests.conftest import measures_on, on_both_geometry_paths, tables_on

SPACE = GroundSpace("X", [Point("a"), Point("b"), Point("c")])
DENSE_1D = [f"g{i}" for i in range(5)]


def _segment():
    pts = [Point(f"g{i}", (i * 0.25,)) for i in range(5)]
    pts += [Point("a0", (0.3,)), Point("a1", (0.9,))]
    return GroundSpace("L", pts)


def _coordinate_table(space):
    return FunctionTable(space, {p: space.coords(p)[0] for p in space.point_ids})


# ---------------------------------------------------------------------------
# WeakNeighborhood
# ---------------------------------------------------------------------------


def test_neighborhood_validation():
    mu = IdempotentMeasure.dirac(SPACE, "a")
    phi = FunctionTable(SPACE, {"a": 1.0, "b": 2.0, "c": 3.0})
    with pytest.raises(ValidationError):
        WeakNeighborhood(mu, (), 0.1)  # no test functions
    with pytest.raises(ValidationError):
        WeakNeighborhood(mu, (phi,), 0.0)  # epsilon must be positive
    with pytest.raises(ValidationError):
        WeakNeighborhood(mu, (phi,), -1.0)
    other_space = GroundSpace("Z", [Point("z")])
    psi = FunctionTable(other_space, {"z": 0.0})
    with pytest.raises(ValidationError):
        WeakNeighborhood(mu, (psi,), 0.1)  # test on the wrong space


@given(measures_on(SPACE), tables_on(SPACE), tables_on(SPACE))
def test_center_always_belongs(mu, phi, psi):
    nbhd = WeakNeighborhood(mu, (phi, psi), 1e-9)
    assert nbhd.contains(mu)
    assert nbhd.discrepancies(mu) == (0.0, 0.0)


def test_containment_is_strict():
    mu = IdempotentMeasure.dirac(SPACE, "a")
    nu = IdempotentMeasure.dirac(SPACE, "b")
    phi = FunctionTable(SPACE, {"a": 0.0, "b": 0.5, "c": 9.0})
    nbhd = WeakNeighborhood(mu, (phi,), 0.5)
    # discrepancy is exactly 0.5, which is NOT strictly below epsilon
    assert nbhd.discrepancies(nu) == (0.5,)
    assert not nbhd.contains(nu)
    assert WeakNeighborhood(mu, (phi,), 0.5 + 1e-9).contains(nu)


def test_discrepancy_is_symmetric_gap():
    mu = IdempotentMeasure.dirac(SPACE, "a")
    nu = IdempotentMeasure.dirac(SPACE, "b")
    phi = FunctionTable(SPACE, {"a": 3.0, "b": 1.0, "c": 0.0})
    assert WeakNeighborhood(mu, (phi,), 1.0).discrepancies(nu) == (2.0,)
    assert WeakNeighborhood(nu, (phi,), 1.0).discrepancies(mu) == (2.0,)


# ---------------------------------------------------------------------------
# Nearest dense point
# ---------------------------------------------------------------------------


def _moved_to(space, dense, pid):
    """Where :func:`approximate_on_dense` moves a point mass at ``pid``."""
    mu = IdempotentMeasure.dirac(space, pid)
    return approximate_on_dense(mu, dense, [FunctionTable(space, dict.fromkeys(space.point_ids, 0.0))], 1.0).support


@on_both_geometry_paths
def test_nearest_dense_point_picks_closest():
    space = _segment()
    assert _moved_to(space, DENSE_1D, "a0") == ("g1",)  # 0.3 -> 0.25
    assert _moved_to(space, DENSE_1D, "a1") == ("g4",)  # 0.9 -> 1.0
    assert _moved_to(space, DENSE_1D, "g2") == ("g2",)  # already dense


@on_both_geometry_paths
def test_nearest_dense_point_tie_breaks_to_earliest():
    # 0.375 sits exactly between representable neighbors 0.25 and 0.5;
    # the earlier of the two in space order wins, whatever the dense order
    lo, hi, x = Point("lo", (0.25,)), Point("hi", (0.5,)), Point("x", (0.375,))
    assert _moved_to(GroundSpace("T", [lo, hi, x]), ["hi", "lo"], "x") == ("lo",)
    assert _moved_to(GroundSpace("T", [hi, lo, x]), ["lo", "hi"], "x") == ("hi",)


# ---------------------------------------------------------------------------
# Approximation on a dense subset
# ---------------------------------------------------------------------------


@on_both_geometry_paths
def test_approximate_oracle():
    space = _segment()
    mu = IdempotentMeasure(space, {"a0": 0.0, "a1": -2.0})
    nu = approximate_on_dense(mu, DENSE_1D, [_coordinate_table(space)], 0.1)
    assert dict(nu.atoms()) == {"g1": 0.0, "g4": -2.0}
    assert set(nu.support) <= set(DENSE_1D)


@on_both_geometry_paths
def test_approximate_raises_when_too_coarse():
    space = _segment()
    mu = IdempotentMeasure(space, {"a0": 0.0, "a1": -2.0})
    with pytest.raises(DenseSetTooCoarseError) as exc:
        approximate_on_dense(mu, DENSE_1D, [_coordinate_table(space)], 0.01)
    err = exc.value
    assert err.epsilon == 0.01
    assert 0.01 <= err.worst_discrepancy <= 0.06


@on_both_geometry_paths
def test_approximate_merges_collisions_by_max():
    pts = [Point("g", (0.0,)), Point("x", (0.1,)), Point("y", (-0.1,))]
    space = GroundSpace("M", pts)
    mu = IdempotentMeasure(space, {"x": 0.0, "y": -1.0})
    flat = FunctionTable(space, {"g": 0.0, "x": 0.0, "y": 0.0})
    nu = approximate_on_dense(mu, ["g"], [flat], 0.5)
    assert dict(nu.atoms()) == {"g": 0.0}


def test_approximate_requires_dense_subset():
    space = _segment()
    mu = IdempotentMeasure.dirac(space, "a0")
    with pytest.raises(ValidationError):
        approximate_on_dense(mu, [], [_coordinate_table(space)], 0.1)


def test_approximate_names_the_first_unknown_dense_point():
    space = _segment()
    mu = IdempotentMeasure.dirac(space, "a0")
    for dense in (["zz", "yy", "xx", "g0"], ["g0", "xx", "zz", "yy"]):
        with pytest.raises(UnknownPointError) as err:
            approximate_on_dense(mu, dense, [_coordinate_table(space)], 0.1)
        assert err.value.point_id == next(p for p in dense if p not in space)


@on_both_geometry_paths
def test_approximate_identity_when_supported_on_dense():
    space = _segment()
    mu = IdempotentMeasure(space, {"g1": 0.0, "g3": -0.5})
    nu = approximate_on_dense(mu, DENSE_1D, [_coordinate_table(space)], 1e-9)
    assert nu == mu


def test_fine_grid_resolves_what_coarse_cannot():
    # same off-grid atom, two grids: the 101-point grid succeeds at an
    # epsilon where the 5-point grid raises.
    n = 101
    ids = [f"g{i}" for i in range(n)]
    pts = [Point(ids[i], (i / (n - 1),)) for i in range(n)]
    pts.append(Point("atom", (0.30401,)))
    space = GroundSpace("F", pts)
    mu = IdempotentMeasure.dirac(space, "atom")
    table = _coordinate_table(space)
    nu = approximate_on_dense(mu, ids, [table], 0.01)
    assert set(nu.support) <= set(ids)
    coarse = [f"g{i}" for i in range(0, n, 25)]  # pitch 0.25
    with pytest.raises(DenseSetTooCoarseError):
        approximate_on_dense(mu, coarse, [table], 0.01)
