"""JSON schemas for spaces, tables, maps, measures, and dense subsets.

Wire formats:

* space        ``{"id": "X", "points": [{"id": "a", "coords": [0.5, 0.5]}, ...]}``
  (``coords`` optional, but all points of a space must agree on having it)
* function     ``{"space": "X", "values": {"a": 2.0, ...}}``
* map          ``{"from": "X", "to": "Y", "assign": {"a": "u", ...}}``
* measure      ``{"space": "X", "atoms": [{"point": "a", "weight": 0.0}, ...]}``
  (weights are numbers or the string ``"-inf"``, which is trimmed away)
* dense subset ``{"space": "X", "points": ["g0", "g1", ...]}``

Space and point ids must be JSON strings, table values and coordinates
JSON numbers; nothing is coerced. Schema problems raise
:class:`~maxplus.errors.ValidationError` with the offending key in the
message.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Collection, Iterable

from .errors import ValidationError
from .ground import FunctionTable, GroundSpace, PointMap
from .measures import IdempotentMeasure, make_measure
from .semiring import weight_from_json


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, an integer too long to read
        raise ValidationError(f"invalid JSON in {path!r}: {exc}") from exc


def _require(obj: Any, key: str, kind: str) -> Any:
    if not isinstance(obj, dict):
        raise ValidationError(f"malformed {kind}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"malformed {kind}: missing key {key!r}")
    return obj[key]


def _typed(obj: Any, key: str, kind: str, cls: type) -> Any:
    """``obj[key]``, which must be a JSON string (``cls`` str) or object (``cls`` dict)."""
    value = _require(obj, key, kind)
    if not isinstance(value, cls):
        noun = "a string" if cls is str else "an object"
        raise ValidationError(f"malformed {kind}: {key!r} must be {noun}")
    return value


_KINDS = {bool: "a boolean", int: "a number", float: "a number", str: "a string", list: "a list",
          dict: "an object", type(None): "null"}
_NUMBERS, _STRINGS = {float, int}, {str}


def _all_numbers(values: Iterable) -> bool:
    """Whether every value is a JSON number: ``float`` would also take booleans and numeric strings."""
    return set(map(type, values)) <= _NUMBERS


def _expect(values: Collection, types: set, what: str) -> None:
    """Every value must be of a JSON type in ``types`` (``_NUMBERS`` or ``_STRINGS``); none is coerced."""
    if not set(map(type, values)) <= types:
        kind = next(type(v) for v in values if type(v) not in types)
        noun = "strings" if types is _STRINGS else "numbers"
        raise ValidationError(f"malformed {what}: expected {noun}, got {_KINDS.get(kind, kind.__name__)}")


def _column(items: Any, key: str, kind: str) -> list:
    """``[item[key] for item in items]``; a malformed list or item raises ValidationError."""
    if not isinstance(items, list):
        raise ValidationError(f"malformed {kind}s: expected a list, got {type(items).__name__}")
    try:
        return [item[key] for item in items]
    except (KeyError, TypeError):
        for item in items:
            _require(item, key, kind)
        raise


# --- spaces ---------------------------------------------------------------

def space_from_dict(obj: Any) -> GroundSpace:
    space_id = _typed(obj, "id", "space", str)
    raw_points = _require(obj, "points", "space")
    if not isinstance(raw_points, list):
        raise ValidationError("malformed space: 'points' must be a list")
    ids = _column(raw_points, "id", "space point")
    _expect(ids, _STRINGS, "space point ids")
    coords = [item.get("coords") for item in raw_points]
    if not set(map(type, coords)) <= {list, type(None)}:
        pid = next(p for p, c in zip(ids, coords) if not isinstance(c, (list, type(None))))
        raise ValidationError(f"malformed space point {pid!r}: 'coords' must be a list")
    if not _all_numbers(chain.from_iterable(filter(None, coords))):
        for pid, c in zip(ids, coords):
            if c is not None:
                _expect(c, _NUMBERS, f"space point {pid!r}")
    return GroundSpace(space_id, zip(ids, coords))


# --- function tables ------------------------------------------------------

def function_from_dict(obj: Any, space: GroundSpace) -> FunctionTable:
    space_id = _require(obj, "space", "function")
    if space_id != space.id:
        raise ValidationError(
            f"function addresses space {space_id!r} but was resolved against {space.id!r}"
        )
    values = _typed(obj, "values", "function", dict)
    _expect(values.values(), _NUMBERS, "function")
    return FunctionTable(space, values)


# --- point maps -----------------------------------------------------------

def map_from_dict(obj: Any, source: GroundSpace, target: GroundSpace) -> PointMap:
    from_id = _require(obj, "from", "map")
    to_id = _require(obj, "to", "map")
    if from_id != source.id or to_id != target.id:
        raise ValidationError(
            f"map addresses {from_id!r} -> {to_id!r} but was resolved against"
            f" {source.id!r} -> {target.id!r}"
        )
    assign = _typed(obj, "assign", "map", dict)
    _expect(assign.values(), _STRINGS, "map 'assign' values")
    return PointMap(source, target, assign)


# --- measures ---------------------------------------------------------------

def measure_from_dict(obj: Any, space: GroundSpace, normalize: bool = False) -> IdempotentMeasure:
    space_id = _require(obj, "space", "measure")
    if space_id != space.id:
        raise ValidationError(
            f"measure addresses space {space_id!r} but was resolved against {space.id!r}"
        )
    atoms = _require(obj, "atoms", "measure")
    points = _column(atoms, "point", "measure atom")
    _expect(points, _STRINGS, "measure atom points")
    weights = _column(atoms, "weight", "measure atom")
    pairs = zip(points, (w if type(w) is float else weight_from_json(w) for w in weights))
    return make_measure(space, pairs, normalize=normalize)


def measure_to_dict(mu: IdempotentMeasure) -> dict:
    return {
        "space": mu.space_id,
        "atoms": [{"point": pid, "weight": w} for pid, w in mu.atoms()],
    }


def measure_to_json(mu: IdempotentMeasure) -> str:
    """``json.dumps(measure_to_dict(mu), sort_keys=True, indent=2)``, built in one join.

    The stdlib only uses its C encoder without ``indent``; this builds the
    same text directly. ``float.__repr__`` is what ``json`` prints for any
    float, a numpy ``float64`` included.
    """
    enc = encode_basestring_ascii
    rep = float.__repr__
    atoms = ",\n".join(
        f'    {{\n      "point": {enc(p)},\n      "weight": {rep(w)}\n    }}' for p, w in mu.atoms()
    )
    return f'{{\n  "atoms": [\n{atoms}\n  ],\n  "space": {enc(mu.space_id)}\n}}'


# --- dense subsets ---------------------------------------------------------

def dense_from_dict(obj: Any) -> tuple[str, list[str]]:
    space_id = _typed(obj, "space", "dense subset", str)
    points = _require(obj, "points", "dense subset")
    if not isinstance(points, list):
        raise ValidationError("malformed dense subset: 'points' must be a list")
    _expect(points, _STRINGS, "dense subset points")
    return space_id, points


# --- space inference for files that only name their space -------------------

def referenced_points(kind: str, obj: Any) -> dict[str, list[str]]:
    """Point ids each space id must contain for the object to make sense.

    Used to infer coordinate-less spaces when no space file is supplied:
    the inferred space is the sorted union of every id referenced under
    that space id. Checks the shape the parsers need, space ids included,
    so every referenced space id is a string.
    """
    refs: dict[str, list[str]] = {}
    if kind == "function":
        values = _typed(obj, "values", "function", dict)
        refs[_typed(obj, "space", "function", str)] = list(values)
    elif kind == "measure":
        atoms = _require(obj, "atoms", "measure")
        points = _column(atoms, "point", "measure atom")
        _expect(points, _STRINGS, "measure atom points")
        refs[_typed(obj, "space", "measure", str)] = points
    elif kind == "map":
        assign = _typed(obj, "assign", "map", dict)
        from_id = _typed(obj, "from", "map", str)
        to_id = _typed(obj, "to", "map", str)
        refs.setdefault(from_id, []).extend(assign)
        _expect(assign.values(), _STRINGS, "map 'assign' values")
        refs.setdefault(to_id, []).extend(assign.values())
    elif kind == "dense":
        space_id, points = dense_from_dict(obj)
        refs[space_id] = points
    else:
        raise ValueError(f"unknown schema kind {kind!r}")
    return refs
