"""Ground models: finite spaces, tables, point maps, and grid builders."""

import math
import re
from collections import defaultdict

import numpy as np
import pytest

from maxplus import (
    FunctionTable,
    GroundSpace,
    IdempotentMeasure,
    MetricUnavailableError,
    Point,
    PointMap,
    SpaceMismatchError,
    UnknownPointError,
    ValidationError,
    WeakNeighborhood,
    check_fiber_bounds,
    combine,
    compose,
    fiber_inf,
    fiber_points,
    fiber_sup,
    identity_map,
    lift_toward,
    max_weight_gap,
    min_plus_functional,
    preimage_contains,
    pullback,
    pushforward,
    sample_preimage,
    sum_functional,
    support_displacement,
    support_image_check,
    uniform_grid_1d,
    uniform_grid_2d,
)
from maxplus.errors import EmptyFiberError
from maxplus.jsonio import space_from_dict


# ---------------------------------------------------------------------------
# GroundSpace
# ---------------------------------------------------------------------------


def test_space_basic_properties(abc_space):
    assert abc_space.id == "X"
    assert abc_space.point_ids == ("a", "b", "c")
    assert len(abc_space) == 3
    assert "a" in abc_space and "z" not in abc_space
    assert not abc_space.has_coords


def test_space_index_and_ordered(abc_space):
    assert abc_space.index("b") == 1
    assert abc_space.ordered({"c", "a"}) == ["a", "c"]
    with pytest.raises(UnknownPointError):
        abc_space.index("zz")


def _space_of_points(pts):
    return GroundSpace("X", [Point(pid, coords) for pid, coords in pts])


def _space_of_pairs(pts):
    return GroundSpace("X", list(pts))


def _space_of_json(pts):
    entries = [{"id": pid} if c is None else {"id": pid, "coords": list(c)} for pid, c in pts]
    return space_from_dict({"id": "X", "points": entries})


space_shapes = pytest.mark.parametrize(
    "build", [_space_of_points, _space_of_pairs, _space_of_json], ids=["point", "pair", "json"]
)


@space_shapes
def test_space_rejects_duplicate_ids(build):
    with pytest.raises(ValidationError, match="duplicate point id 'a'"):
        build([("a", None), ("b", None), ("a", None)])


@space_shapes
def test_space_rejects_mixed_coords(build):
    with pytest.raises(ValidationError, match="either every point carries coordinates or none"):
        build([("a", (0.0,)), ("b", None)])


@space_shapes
def test_space_rejects_dimension_mismatch(build):
    with pytest.raises(ValidationError, match=re.escape("mixed coordinate dimensions [1, 2]")):
        build([("a", (0.0,)), ("b", (0.0, 1.0))])


@space_shapes
def test_space_rejects_duplicate_coordinates(build):
    with pytest.raises(ValidationError, match="points 'a' and 'c' share coordinates"):
        build([("a", (0.5,)), ("b", (0.25,)), ("c", (0.5,))])


@space_shapes
def test_space_rejects_nonfinite_coords(build):
    with pytest.raises(ValidationError, match="coordinates must be finite"):
        build([("a", (0.0,)), ("b", (math.nan,))])


def test_space_rejects_empty():
    with pytest.raises(ValidationError):
        GroundSpace("X", [])


@pytest.mark.parametrize(
    "space_id, points, message",
    [
        (None, [("1", (0.0,)), ("b", (1.0,))], "space id must be a string, got None"),
        ("X", [(1, (0.0,)), (True, (1.0,))], "point ids must be strings, got 1"),
        ("X", [Point("a"), Point(None)], "point ids must be strings, got None"),
        ("Y", [None, "a"], "point ids must be strings, got None"),
        ("Y", ["a", 3], "point ids must be strings, got 3"),
    ],
    ids=["space-id-none", "pair-ids", "point-id-none", "entry-none", "entry-number"],
)
def test_space_rejects_ids_that_are_not_strings(space_id, points, message):
    with pytest.raises(ValidationError, match=message):
        GroundSpace(space_id, points)


def test_coords_requires_metric(abc_space, segment_space):
    assert segment_space.coords("g2") == (0.5,)
    with pytest.raises(MetricUnavailableError):
        abc_space.coords("a")


def test_distance_is_euclidean(segment_space):
    coords = segment_space.coords
    assert math.dist(coords("g0"), coords("g4")) == 1.0
    assert math.dist(coords("a0"), coords("g1")) == pytest.approx(0.05)
    pts = (Point("p", (0.0, 0.0)), Point("q", (3.0, 4.0)))
    sq = GroundSpace("S", pts)
    assert sq.points == pts
    assert math.dist(sq.coords("p"), sq.coords("q")) == 5.0


# ---------------------------------------------------------------------------
# FunctionTable
# ---------------------------------------------------------------------------


def test_table_totality_enforced(abc_space):
    with pytest.raises(ValidationError):
        FunctionTable(abc_space, {"a": 1.0, "b": 2.0})  # missing c
    with pytest.raises(ValidationError):
        FunctionTable(abc_space, {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})


def test_table_totality_message_lists_missing_and_extraneous_ids(abc_space):
    with pytest.raises(ValidationError, match=re.escape("missing ['c'], extraneous ['d', 'e']")):
        FunctionTable(abc_space, {"a": 1.0, "b": 2.0, "e": 3.0, "d": 4.0})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda s, t: FunctionTable(s, {"a": 0.0, "b": 1.0, 1: 2.0, "z": 3.0}),
         "function table on space 'X' is not total: missing ['c'], extraneous [1, 'z']"),
        (lambda s, t: PointMap(s, t, {"a": "u", "b": "u", "c": "v", None: "u", "d": "v"}),
         "map from 'X' is not total: missing [], extraneous [None, 'd']"),
    ],
    ids=["table-int-key", "map-none-key"],
)
def test_totality_message_with_keys_of_mixed_types(abc_space, uv_space, build, message):
    # keys that do not compare are listed by type name, then repr, not a bare TypeError
    with pytest.raises(ValidationError, match=re.escape(message)):
        build(abc_space, uv_space)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda s, t: FunctionTable(s, {"a": 0.0, "b": 1.0, "z": 2.0}),
         "function table on space 'X' is not total: missing ['c'], extraneous ['z']"),
        (lambda s, t: FunctionTable(s, defaultdict(float, {"a": 1.0, "b": 2.0, "z": 3.0})),
         "function table on space 'X' is not total: missing ['c'], extraneous ['z']"),
        (lambda s, t: PointMap(s, t, {"a": "u", "b": "u", "z": "v"}),
         "map from 'X' is not total: missing ['c'], extraneous ['z']"),
        (lambda s, t: PointMap(s, t, defaultdict(lambda: "u", {"a": "u", "z": "v", "b": "v"})),
         "map from 'X' is not total: missing ['c'], extraneous ['z']"),
    ],
    ids=["table", "table-defaultdict", "map", "map-defaultdict"],
)
def test_totality_with_as_many_keys_as_points(abc_space, uv_space, build, message):
    # a point the mapping lacks reads as no value, not as a default, and totality is reported first
    with pytest.raises(ValidationError, match=re.escape(message)):
        build(abc_space, uv_space)


def test_table_rejects_nonfinite(abc_space):
    with pytest.raises(ValidationError):
        FunctionTable(abc_space, {"a": 1.0, "b": math.inf, "c": 0.0})


@pytest.mark.parametrize(
    "bad",
    ["1.5", np.str_("1.5"), True, np.True_, b"1.5", bytearray(b"1.5"), memoryview(b"1.5"), np.bytes_(b"1.5")],
    ids=["str", "numpy-str", "bool", "numpy-bool", "bytes", "bytearray", "memoryview", "numpy-bytes"],
)
def test_table_refuses_booleans_and_strings(abc_space, bad):
    with pytest.raises(ValidationError, match="function table on space 'X' has a non-numeric value"):
        FunctionTable(abc_space, {"a": bad, "b": 2.0, "c": 3.0})


@pytest.mark.parametrize(
    "bad",
    [("1.5",), (np.str_("1.5"),), (True,), (np.False_,), "12",
     (b"1.5",), (bytearray(b"1.5"),), (memoryview(b"1.5"),), (np.bytes_(b"1.5"),)],
    ids=["str", "numpy-str", "bool", "numpy-bool", "str-row", "bytes", "bytearray", "memoryview", "numpy-bytes"],
)
def test_space_refuses_boolean_and_string_coords(bad):
    with pytest.raises(ValidationError, match=re.escape(f"coordinates must be numbers, got {bad!r}")):
        GroundSpace("X", [("a", (0.5,)), ("b", bad)])


@pytest.mark.parametrize(
    "number", [2, np.int64(2), np.float32(2.0), np.float64(2.0)], ids=["int", "int64", "float32", "float64"]
)
def test_tables_and_coords_take_numbers_of_every_other_kind(abc_space, number):
    assert FunctionTable(abc_space, {"a": number, "b": 2.0, "c": 3.0})("a") == 2.0
    assert GroundSpace("X", [("a", (0.5,)), ("b", (number,))]).coords("b") == (2.0,)


def test_table_call_and_eq(abc_space):
    phi = FunctionTable(abc_space, {"a": 1.0, "b": 2, "c": 3.0})
    assert phi("b") == 2.0
    assert type(phi("b")) is float
    assert dict(phi.values) == {"a": 1.0, "b": 2.0, "c": 3.0}
    assert all(type(v) is float for v in phi.values.values())
    assert phi == FunctionTable(abc_space, {"a": 1.0, "b": 2.0, "c": 3.0})
    assert phi != FunctionTable(abc_space, {"a": 1.0, "b": 2.0, "c": 3.5})
    with pytest.raises(UnknownPointError):
        phi("zz")


# ---------------------------------------------------------------------------
# PointMap
# ---------------------------------------------------------------------------


def test_map_totality_and_codomain(abc_space, uv_space):
    with pytest.raises(ValidationError):
        PointMap(abc_space, uv_space, {"a": "u", "b": "v"})  # missing c
    with pytest.raises(ValidationError):
        PointMap(abc_space, uv_space, {"a": "u", "b": "v", "c": "zz"})


def test_map_fibers_and_image(abc_space, uv_space):
    f = PointMap(abc_space, uv_space, {"a": "u", "b": "u", "c": "v"})
    assert f("a") == "u"
    assert fiber_points(f, "u") == ("a", "b")  # source order
    assert fiber_points(f, "v") == ("c",)
    assert f.image == frozenset({"u", "v"})


def test_map_keys_out_of_source_order(abc_space, uv_space):
    in_order = PointMap(abc_space, uv_space, {"a": "u", "b": "u", "c": "v"})
    f = PointMap(abc_space, uv_space, {"c": "v", "a": "u", "b": "u"})
    assert list(f.assign) == ["a", "b", "c"]  # stored in source order
    assert [f(p) for p in "abc"] == ["u", "u", "v"]
    assert fiber_points(f, "u") == ("a", "b") and fiber_points(f, "v") == ("c",)
    assert f == in_order
    mu = IdempotentMeasure(abc_space, {"a": -1.0, "c": 0.0})
    assert pushforward(f, mu).atoms() == pushforward(in_order, mu).atoms() == [("u", -1.0), ("v", 0.0)]
    psi = FunctionTable(uv_space, {"u": 10.0, "v": 20.0})
    assert [pullback(psi, f)(p) for p in "abc"] == [10.0, 10.0, 20.0]


def test_map_empty_fiber(abc_space, uv_space):
    f = PointMap(abc_space, uv_space, {"a": "u", "b": "u", "c": "u"})
    assert f.image == frozenset({"u"})
    assert fiber_points(f, "v") == ()
    phi = FunctionTable(abc_space, {"a": 1.0, "b": 2.0, "c": 3.0})
    for extreme in (fiber_sup, fiber_inf):
        with pytest.raises(EmptyFiberError, match=re.escape("undefined on non-image point 'v' of space 'Y'")):
            extreme(f, phi)


def test_compose_and_identity(abc_space, uv_space):
    f = PointMap(abc_space, uv_space, {"a": "u", "b": "u", "c": "v"})
    w_space = GroundSpace("W", [Point("w")])
    g = PointMap(uv_space, w_space, {"u": "w", "v": "w"})
    gf = compose(g, f)
    assert gf("a") == "w" and gf.source is abc_space and gf.target is w_space
    ident = identity_map(abc_space)
    assert all(ident(p) == p for p in abc_space.point_ids)
    with pytest.raises(ValidationError):
        compose(f, g)  # spaces do not chain in this order


def test_pullback(abc_space, uv_space):
    f = PointMap(abc_space, uv_space, {"a": "u", "b": "u", "c": "v"})
    psi = FunctionTable(uv_space, {"u": 10.0, "v": 20.0})
    pulled = pullback(psi, f)
    assert pulled.space is abc_space
    assert [pulled(p) for p in "abc"] == [10.0, 10.0, 20.0]


# ---------------------------------------------------------------------------
# Grid builders
# ---------------------------------------------------------------------------


def test_uniform_grid_1d():
    g = uniform_grid_1d("G", 5)
    assert g.point_ids == ("g0", "g1", "g2", "g3", "g4")
    assert g.coords("g2") == (0.5,)
    assert g.coords("g4") == (1.0,)


def test_uniform_grid_2d_row_major():
    g = uniform_grid_2d("G", 3)
    assert len(g) == 9
    assert g.coords("g0_0") == (0.0, 0.0)
    assert g.coords("g1_2") == (0.5, 1.0)
    assert g.coords("g2_2") == (1.0, 1.0)


# ---------------------------------------------------------------------------
# Space identity: two different spaces may share an id
# ---------------------------------------------------------------------------

S1 = GroundSpace("S", ["a", "b"])
S2 = GroundSpace("S", ["b", "c"])  # same id, different points
T = GroundSpace("T", ["t"])
ON_S1 = IdempotentMeasure.dirac(S1, "b")
ON_S2 = IdempotentMeasure.dirac(S2, "b")
PHI_S1 = FunctionTable(S1, {"a": 1.0, "b": 1.0})
PHI_S2 = FunctionTable(S2, {"b": 1.0, "c": 1.0})
TO_T_FROM_S2 = PointMap(S2, T, {"b": "t", "c": "t"})
INTO_S1 = PointMap(T, S1, {"t": "a"})
FROM_S2 = PointMap(S2, S2, {"b": "c", "c": "b"})

MISMATCHED = {
    "integrate": lambda: ON_S1.integrate(PHI_S2),
    "combine": lambda: combine(0.0, ON_S1, 0.0, ON_S2),
    "max_weight_gap": lambda: max_weight_gap(ON_S1, ON_S2),
    "compose": lambda: compose(FROM_S2, INTO_S1),
    "pullback": lambda: pullback(PHI_S2, INTO_S1),
    "pushforward": lambda: pushforward(TO_T_FROM_S2, ON_S1),
    "preimage_contains": lambda: preimage_contains(INTO_S1, ON_S2, IdempotentMeasure.dirac(T, "t")),
    "sample_preimage": lambda: sample_preimage(INTO_S1, ON_S2, 0),
    "lift_toward": lambda: lift_toward(TO_T_FROM_S2, ON_S1, IdempotentMeasure.dirac(T, "t")),
    "fiber_sup": lambda: fiber_sup(TO_T_FROM_S2, PHI_S1),
    "fiber_inf": lambda: fiber_inf(TO_T_FROM_S2, PHI_S1),
    "check_fiber_bounds": lambda: check_fiber_bounds(PointMap(S1, T, {"a": "t", "b": "t"}), "t", ON_S1, PHI_S2),
    "support_image_check": lambda: support_image_check(TO_T_FROM_S2, IdempotentMeasure.dirac(S1, "a")),
    "min_plus_functional": lambda: min_plus_functional(ON_S1)(PHI_S2),
    "sum_functional": lambda: sum_functional(ON_S1)(PHI_S2),
    "support_displacement": lambda: support_displacement(ON_S1, ON_S2),
    "neighborhood_test": lambda: WeakNeighborhood(ON_S1, (PHI_S2,), 0.1),
    "neighborhood_member": lambda: WeakNeighborhood(ON_S1, (PHI_S1,), 0.1).contains(ON_S2),
}


@pytest.mark.parametrize("operation", sorted(MISMATCHED))
def test_spaces_sharing_an_id_are_rejected(operation):
    with pytest.raises(SpaceMismatchError, match="same id, different points"):
        MISMATCHED[operation]()


def test_spaces_sharing_an_id_are_unequal():
    assert ON_S1 != ON_S2
    assert PHI_S1 != PHI_S2
    assert PointMap(S1, T, {"a": "t", "b": "t"}) != PointMap(S2, T, {"b": "t", "c": "t"})


def test_equal_copies_of_a_space_are_one_space():
    copy = GroundSpace("S", ["a", "b"])
    assert IdempotentMeasure.dirac(copy, "b") == ON_S1
    assert ON_S1.integrate(FunctionTable(copy, {"a": 1.0, "b": 1.0})) == 1.0
    assert pushforward(PointMap(copy, T, {"a": "t", "b": "t"}), ON_S1).support == ("t",)
    assert PointMap(copy, T, {"a": "t", "b": "t"}) == PointMap(S1, T, {"a": "t", "b": "t"})
