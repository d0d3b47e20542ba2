"""JSON schemas for spaces, tables, maps, measures, dense subsets and tests files.

Wire formats:

* space        ``{"id": "X", "points": [{"id": "a", "coords": [0.5, 0.5]}, ...]}``
  (``coords`` optional, but all points of a space must agree on having it)
* function     ``{"space": "X", "values": {"a": 2.0, ...}}``
* map          ``{"from": "X", "to": "Y", "assign": {"a": "u", ...}}``
* measure      ``{"space": "X", "atoms": [{"point": "a", "weight": 0.0}, ...]}``
  (weights are numbers or the string ``"-inf"``, which is trimmed away;
  a number that overflows to ``-inf`` is an error)
* dense subset ``{"space": "X", "points": ["g0", "g1", ...]}``
* tests file   ``[function, ...]`` or ``{"tests": [function, ...]}``
  (a nonempty list of function objects)

Space and point ids must be JSON strings, table values and coordinates
JSON numbers; nothing is coerced, and ``NaN``, ``Infinity`` and
``-Infinity``, which are not JSON, are refused. Schema problems raise
:class:`~maxplus.errors.ValidationError` with the offending key in the
message.

Every kind but the space has one reader, ``read_<kind>``, which runs each
check that needs no space once and returns a :class:`Read`: the space ids
and point ids the object references, and the step that builds it on the
resolved spaces.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Collection, Iterable, NamedTuple

from .errors import ValidationError
from .ground import FunctionTable, GroundSpace, PointMap
from .measures import IdempotentMeasure, _build
from .semiring import weight_from_json


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_not_json)
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from exc
    # bad JSON, NaN or Infinity, bytes that are not UTF-8, an integer too long to read, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON in {path!r}: {exc}") from exc


def _not_json(name: str) -> None:
    raise ValueError(f"{name} is not a JSON number")


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


class Read(NamedTuple):
    """A wire object that has passed every check needing no space.

    ``refs`` maps each space id the object names to the point ids it
    mentions there, both sides of a self-map under one key. ``build``
    makes the object from the resolved spaces, one per entry of
    ``space_ids`` and in that order.
    """

    space_ids: tuple[str, ...]
    refs: dict[str, list[str]]
    build: Callable[..., Any]


def merged_refs(reads: Iterable[Read]) -> dict[str, list[str]]:
    """The refs of several objects under one dict, point ids concatenated in order."""
    refs: dict[str, list[str]] = {}
    for read in reads:
        for space_id, point_ids in read.refs.items():
            refs.setdefault(space_id, []).extend(point_ids)
    return refs


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


# --- function tables and tests files ---------------------------------------

def read_function(obj: Any) -> Read:
    values = _typed(obj, "values", "function", dict)
    space_id = _typed(obj, "space", "function", str)
    _expect(values.values(), _NUMBERS, "function")
    return Read((space_id,), {space_id: list(values)}, lambda space: FunctionTable(space, values))


def read_tests(obj: Any) -> Read:
    """A tests file; ``build`` returns its function tables as a list."""
    raw = obj.get("tests") if isinstance(obj, dict) else obj
    if not isinstance(raw, list) or not raw:
        raise ValidationError("malformed tests file: expected a nonempty list of function objects")
    reads = [read_function(t) for t in raw]
    return Read(tuple(r.space_ids[0] for r in reads), merged_refs(reads),
                lambda *spaces: [r.build(space) for r, space in zip(reads, spaces)])


# --- point maps -----------------------------------------------------------

def read_map(obj: Any) -> Read:
    assign = _typed(obj, "assign", "map", dict)
    from_id = _typed(obj, "from", "map", str)
    to_id = _typed(obj, "to", "map", str)
    _expect(assign.values(), _STRINGS, "map 'assign' values")
    refs = {from_id: list(assign)}
    refs.setdefault(to_id, []).extend(assign.values())
    return Read((from_id, to_id), refs, lambda source, target: PointMap(source, target, assign))


# --- measures ---------------------------------------------------------------

def read_measure(obj: Any) -> Read:
    """A measure; its weights are read when it is built, on its space."""
    atoms = _require(obj, "atoms", "measure")
    points = _column(atoms, "point", "measure atom")
    _expect(points, _STRINGS, "measure atom points")
    space_id = _typed(obj, "space", "measure", str)
    weights = _column(atoms, "weight", "measure atom")
    if -math.inf in weights:  # a number that overflowed; bottom is only the string "-inf"
        point = points[weights.index(-math.inf)]
        raise ValidationError(f"malformed measure atom {point!r}: weight out of float range")

    def build(space: GroundSpace) -> IdempotentMeasure:
        return IdempotentMeasure._trusted(space, *_build(space, points, weights, False, weight_from_json))

    return Read((space_id,), {space_id: points}, build)


def measure_to_dict(mu: IdempotentMeasure) -> dict:
    return {
        "space": mu.space_id,
        "atoms": [{"point": pid, "weight": w} for pid, w in mu.atoms()],
    }


def measure_to_json(mu: IdempotentMeasure) -> str:
    """``json.dumps(measure_to_dict(mu), sort_keys=True, indent=2)``, built in one join.

    The stdlib only uses its C encoder without ``indent``; this builds the
    same text directly from the measure's arrays. ``float.__repr__`` is
    what ``json`` prints for any float.
    """
    enc = encode_basestring_ascii
    rep = float.__repr__
    ids = mu._space._ids
    atoms = ",\n".join(
        f'    {{\n      "point": {enc(ids[i])},\n      "weight": {rep(w)}\n    }}'
        for i, w in zip(mu._idx.tolist(), mu._w.tolist())
    )
    return f'{{\n  "atoms": [\n{atoms}\n  ],\n  "space": {enc(mu.space_id)}\n}}'


# --- dense subsets ---------------------------------------------------------

def read_dense(obj: Any) -> Read:
    """A dense subset; ``build`` returns its space id and its point ids."""
    space_id = _typed(obj, "space", "dense subset", str)
    points = _require(obj, "points", "dense subset")
    if not isinstance(points, list):
        raise ValidationError("malformed dense subset: 'points' must be a list")
    _expect(points, _STRINGS, "dense subset points")
    return Read((space_id,), {space_id: points}, lambda *_: (space_id, points))
