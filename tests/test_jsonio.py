"""JSON wire formats: parsing, validation, round-trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxplus import GroundSpace, IdempotentMeasure, Point, ValidationError
from maxplus.jsonio import (
    load_json_file,
    measure_to_dict,
    measure_to_json,
    read_dense,
    read_function,
    read_map,
    read_measure,
    read_tests,
    space_from_dict,
)

SPACE_OBJ = {
    "id": "X",
    "points": [
        {"id": "a", "coords": [0.0, 0.0]},
        {"id": "b", "coords": [1.0, 0.0]},
        {"id": "c", "coords": [0.0, 1.0]},
    ],
}


def _space():
    return space_from_dict(SPACE_OBJ)


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------


def test_space_round_trip():
    space = _space()
    assert space.id == "X"
    assert space.point_ids == ("a", "b", "c")
    assert [space.coords(p) for p in space.point_ids] == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def test_space_without_coords():
    space = space_from_dict({"id": "B", "points": [{"id": "p"}, {"id": "q"}]})
    assert not space.has_coords
    assert space.id == "B"
    assert space.point_ids == ("p", "q")


@pytest.mark.parametrize(
    "broken",
    [
        {},  # no id
        {"id": "X"},  # no points
        {"id": "X", "points": "ab"},  # wrong type
        {"id": "X", "points": [{"coords": [0.0]}]},  # point without id
        {"id": "X", "points": [{"id": "a"}, {"id": "a"}]},  # duplicate
        {"id": None, "points": [{"id": "a"}]},  # space id not a string
        {"id": "X", "points": [{"id": "a"}, {"id": 1}]},  # point id not a string
        "not even a dict",
    ],
)
def test_space_validation(broken):
    with pytest.raises(ValidationError):
        space_from_dict(broken)


# ---------------------------------------------------------------------------
# Functions
# ---------------------------------------------------------------------------


def test_function_round_trip():
    space = _space()
    obj = {"space": "X", "values": {"a": 2.0, "b": -1.5, "c": 0.0}}
    phi = read_function(obj).build(space)
    assert phi("a") == 2.0
    assert phi.space_id == "X"
    assert dict(phi.values) == obj["values"]


def test_function_must_be_total():
    space = _space()
    with pytest.raises(ValidationError):
        read_function({"space": "X", "values": {"a": 0.0}}).build(space)


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------


def test_map_round_trip():
    source = _space()
    target = space_from_dict({"id": "Y", "points": [{"id": "u"}, {"id": "v"}]})
    obj = {"from": "X", "to": "Y", "assign": {"a": "u", "b": "u", "c": "v"}}
    f = read_map(obj).build(source, target)
    assert f("c") == "v"
    assert (f.from_space, f.to_space) == ("X", "Y")
    assert dict(f.assign) == obj["assign"]


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def test_measure_round_trip_in_space_order():
    space = _space()
    obj = {"space": "X", "atoms": [{"point": "c", "weight": -1.0}, {"point": "a", "weight": 0.0}]}
    mu = read_measure(obj).build(space)
    assert measure_to_dict(mu) == {
        "space": "X",
        "atoms": [{"point": "a", "weight": 0.0}, {"point": "c", "weight": -1.0}],
    }


def test_measure_accepts_minus_inf_weight_string():
    space = _space()
    obj = {
        "space": "X",
        "atoms": [{"point": "a", "weight": 0.0}, {"point": "b", "weight": "-inf"}],
    }
    mu = read_measure(obj).build(space)
    assert mu.support == ("a",)
    assert mu.weight("b") == -math.inf


def test_measure_must_be_normalized():
    obj = {"space": "X", "atoms": [{"point": "a", "weight": -3.0}]}
    with pytest.raises(ValidationError, match="norm axiom"):
        read_measure(obj).build(_space())


def test_measure_validation():
    space = _space()
    with pytest.raises(ValidationError):
        read_measure({"space": "X", "atoms": [{"point": "zz", "weight": 0.0}]}).build(space)
    with pytest.raises(ValidationError):
        read_measure({"space": "X"}).build(space)
    with pytest.raises(ValidationError):
        read_measure({"space": "X", "atoms": [{"point": "a"}]}).build(space)
    for atoms in (5, "ab", [5], [{"weight": 0.0}]):
        with pytest.raises(ValidationError):
            read_measure({"space": "X", "atoms": atoms})


tricky_ids = st.text(
    st.one_of(st.sampled_from(['"', "\\", "/", "\n", "\x00", "é", "\u2603", "\U0001f600"]), st.characters()),
    min_size=1,
    max_size=6,
)
extreme_weights = st.one_of(
    st.sampled_from([1e308, -1e308, 5e-324, -0.0, 0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    tricky_ids,
    st.dictionaries(tricky_ids, extreme_weights, min_size=1, max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_measure_to_json_matches_json_dumps(space_id, weights, numpy_weight):
    space = GroundSpace(space_id, list(weights))
    w = np.array(list(weights.values()))
    w[0] = numpy_weight
    mu = IdempotentMeasure._trusted(space, np.arange(len(w)), w)
    expected = json.dumps(measure_to_dict(mu), sort_keys=True, indent=2)
    assert measure_to_json(mu) == expected


# ---------------------------------------------------------------------------
# Dense subsets
# ---------------------------------------------------------------------------


def test_dense_from_dict():
    sid, pts = read_dense({"space": "X", "points": ["a", "c"]}).build()
    assert sid == "X" and pts == ["a", "c"]
    with pytest.raises(ValidationError):
        read_dense({"space": "X", "points": "ac"})


@pytest.mark.parametrize(
    "parse",
    [
        lambda: read_measure({"space": "X", "atoms": [{"point": None, "weight": 0.0}]}).build(_space()),
        lambda: read_map({"from": "X", "to": "X", "assign": {"a": "a", "b": 1, "c": "c"}}).build(
            _space(), _space()),
        lambda: read_dense({"space": "X", "points": ["a", True]}),
        lambda: read_measure({"space": "X", "atoms": [{"point": 1, "weight": 0.0}]}),
        lambda: read_map({"from": "X", "to": "Y", "assign": {"a": None}}),
    ],
    ids=["measure", "map", "dense", "measure-refs", "map-refs"],
)
def test_point_ids_must_be_strings(parse):
    with pytest.raises(ValidationError, match="expected strings"):
        parse()


# ---------------------------------------------------------------------------
# File loading and the point ids each reader returns
# ---------------------------------------------------------------------------


def test_load_json_file(tmp_path):
    path = tmp_path / "obj.json"
    path.write_text(json.dumps({"k": 1}))
    assert load_json_file(str(path)) == {"k": 1}
    with pytest.raises(ValidationError):
        load_json_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValidationError):
        load_json_file(str(bad))


def test_reader_refs_by_kind():
    fn = {"space": "X", "values": {"a": 1.0, "b": 2.0}}
    assert read_function(fn).refs == {"X": ["a", "b"]}
    ms = {"space": "X", "atoms": [{"point": "c", "weight": 0.0}]}
    assert read_measure(ms).refs == {"X": ["c"]}
    mp = {"from": "X", "to": "Y", "assign": {"a": "u"}}
    assert read_map(mp).refs == {"X": ["a"], "Y": ["u"]}
    dn = {"space": "X", "points": ["a", "b"]}
    assert read_dense(dn).refs == {"X": ["a", "b"]}


def test_read_tests_takes_a_list_or_an_object():
    tests = [{"space": "X", "values": {"a": 1.0}}, {"space": "X", "values": {"b": 2.0}}]
    assert read_tests(tests).refs == read_tests({"tests": tests}).refs == {"X": ["a", "b"]}
    for broken in ([], {"tests": []}, {"tests": 5}, 5):
        with pytest.raises(ValidationError, match="malformed tests file"):
            read_tests(broken)


def test_reader_refs_merge_endomap_spaces():
    # a self-map references its space under one key with both sides merged
    mp = {"from": "X", "to": "X", "assign": {"a": "b", "b": "a"}}
    refs = read_map(mp).refs
    assert set(refs) == {"X"}
    assert set(refs["X"]) == {"a", "b"}
