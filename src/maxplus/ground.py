"""Finite ground models.

A ``GroundSpace`` is an ordered finite point set, optionally embedded in
Euclidean space; a ``FunctionTable`` is a total real-valued table on a
space (totality stands in for continuity on a finite discrete model),
stored as one float64 vector in space order; a ``PointMap`` is a total
point-to-point map between spaces. All three are immutable after
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    EmptyFiberError,
    MetricUnavailableError,
    SpaceMismatchError,
    UnknownPointError,
    ValidationError,
)

PointLike = Union["Point", str, tuple]


@dataclass(frozen=True)
class Point:
    id: str
    coords: tuple[float, ...] | None = None


class GroundSpace:
    """Ordered finite point set with optional coordinates.

    Point ids must be unique; coordinates, when present, must be carried
    by every point, have a common dimension, and be pairwise distinct
    (so the Euclidean distance separates points). A space stores its ids,
    an id-to-position dict and, with coordinates, one float tuple per
    point. Checks run on whole columns; points are walked one by one only
    to convert coordinates that are not all floats, or to name the
    offender once a check has failed.
    """

    __slots__ = ("_id", "_ids", "_index", "_coords")

    def __init__(self, space_id: str, points: Iterable[PointLike]):
        if type(space_id) is not str:
            raise ValidationError(f"space id must be a string, got {space_id!r}")
        self._id = space_id
        ids, rows = _split(points)
        coords = None if rows is None else _coord_rows(rows)
        if not ids:
            raise ValidationError(f"space {space_id!r} must contain at least one point")

        index = dict(zip(ids, range(len(ids))))
        if len(index) != len(ids):
            dup = next(pid for i, pid in enumerate(ids) if index[pid] != i)
            raise ValidationError(f"duplicate point id {dup!r} in space {space_id!r}")

        if coords is not None:
            if None in coords:
                raise ValidationError(
                    f"space {space_id!r}: either every point carries coordinates or none does"
                )
            dims = set(map(len, coords))
            if len(dims) != 1:
                raise ValidationError(f"space {space_id!r}: mixed coordinate dimensions {sorted(dims)}")
            if len(set(coords)) != len(coords):
                seen: dict[tuple[float, ...], str] = {}
                for pid, c in zip(ids, coords):
                    if c in seen:
                        raise ValidationError(
                            f"space {space_id!r}: points {seen[c]!r} and {pid!r} share coordinates {c}"
                        )
                    seen[c] = pid

        self._ids = tuple(ids)
        self._index = index
        self._coords = coords

    @property
    def id(self) -> str:
        return self._id

    @property
    def points(self) -> tuple[Point, ...]:
        """The points as :class:`Point` values, built on each call."""
        return tuple(map(Point, self._ids, repeat(None) if self._coords is None else self._coords))

    _points = points  # the name the bench tracer counts points by

    @property
    def point_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def has_coords(self) -> bool:
        return self._coords is not None

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, point_id: object) -> bool:
        return point_id in self._index

    def index(self, point_id: str) -> int:
        try:
            return self._index[point_id]
        except KeyError:
            raise UnknownPointError(point_id, self._id) from None

    def coords(self, point_id: str) -> tuple[float, ...]:
        if self._coords is None:
            raise MetricUnavailableError(f"metric unavailable: space {self._id!r} has no coordinates")
        try:
            return self._coords[self._index[point_id]]
        except KeyError:
            raise UnknownPointError(point_id, self._id) from None

    def _coords_at(self, positions: Iterable[int]) -> list[tuple[float, ...]]:
        """The coordinates of the points at the given positions."""
        if self._coords is None:
            raise MetricUnavailableError(f"metric unavailable: space {self._id!r} has no coordinates")
        return list(map(self._coords.__getitem__, positions))

    def ordered(self, point_ids: Iterable[str]) -> list[str]:
        """Sort the given ids by their position in the space (validates membership)."""
        return sorted(point_ids, key=self.index)

    def __repr__(self) -> str:
        return f"GroundSpace({self._id!r}, {len(self._ids)} points)"


def _split(points: Iterable[PointLike]) -> tuple[list[str], list | None]:
    """The ids and the raw coordinates of the entries; ``None`` for no coordinates at all.

    Raw coordinates are ``None`` for an entry without them. Bare ids and
    ``(id, coords)`` pairs are split a column at a time. Every id must be
    a string; none is coerced.
    """
    entries = list(points)
    kinds = set(map(type, entries))
    if kinds <= {str}:
        return entries, None
    if kinds == {tuple} and set(map(len, entries)) == {2}:
        ids, rows = zip(*entries)
    else:
        ids, rows = [], []
        for entry in entries:
            if isinstance(entry, Point):
                pid, coords = entry.id, entry.coords
            elif isinstance(entry, tuple) and len(entry) == 2:
                pid, coords = entry
            else:  # a bare id, checked with the others below
                pid, coords = entry, None
            ids.append(pid)
            rows.append(coords)
    if not set(map(type, ids)) <= {str}:
        bad = next(pid for pid in ids if type(pid) is not str)
        raise ValidationError(f"point ids must be strings, got {bad!r}")
    return list(ids), None if rows.count(None) == len(rows) else list(rows)


def _coord_rows(rows: list) -> tuple:
    """Each raw coordinate sequence as a float tuple, ``None`` kept where absent.

    Lists and tuples of floats that are all non-empty and finite pass in
    a few whole-column passes. Anything else is converted point by point
    by :func:`_as_coords`, which raises for the first bad point.
    """
    if set(map(type, rows)) <= {tuple, list} and set(map(type, chain.from_iterable(rows))) <= {float}:
        out = tuple(map(tuple, rows))
        if all(map(math.isfinite, chain.from_iterable(out))) and 0 not in set(map(len, out)):
            return out
    return tuple(None if r is None else _as_coords(r) for r in rows)


def _as_coords(coords: Sequence[float]) -> tuple[float, ...]:
    try:
        out = tuple(float(c) for c in coords)
    except (TypeError, ValueError):
        raise ValidationError(f"coordinates must be numbers, got {coords!r}") from None
    except OverflowError:  # an integer too large for a float
        raise ValidationError(f"coordinates out of float range: {coords!r}") from None
    if not out:
        raise ValidationError("coordinates must be non-empty when present")
    if not all(math.isfinite(c) for c in out):
        raise ValidationError(f"coordinates must be finite, got {out}")
    return out


def _same_space(a: GroundSpace, b: GroundSpace) -> bool:
    """One space, or two with the same id and the same points in the same order."""
    return a is b or (a._id == b._id and a._ids == b._ids)


def _require_same_space(a: GroundSpace, b: GroundSpace, what: str) -> None:
    """Raise :class:`SpaceMismatchError` naming ``what`` unless ``a`` and ``b`` are one space."""
    if a is not b and not _same_space(a, b):
        shared = " (same id, different points)" if a._id == b._id else ""
        raise SpaceMismatchError(f"{what}: space {a._id!r} is not space {b._id!r}{shared}")


def distance(space: GroundSpace, x: str, y: str) -> float:
    """Euclidean distance between two points of a coordinate-carrying space."""
    return math.dist(space.coords(x), space.coords(y))


def _distance_to_set(points: Iterable[Sequence[float]], c: Sequence[float]) -> float:
    """Euclidean distance from coordinates ``c`` to the nearest of ``points`` (nonempty)."""
    return min(map(math.dist, points, repeat(c)))


def _nearest(points: Sequence[Sequence[float]], c: Sequence[float]) -> int:
    """Index of the point nearest to ``c``; ties go to the earliest point."""
    ds = list(map(math.dist, points, repeat(c)))
    return ds.index(min(ds))


def _listed(keys: Iterable) -> list:
    """The keys in sorted order; keys of types that do not compare go by type name, then repr."""
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=lambda k: (type(k).__name__, repr(k)))


def _not_total(ids, keys) -> str:
    return f"missing {_listed(ids - keys)}, extraneous {_listed(keys - ids)}"


class FunctionTable:
    """Total real-valued function on a ground space: a float64 vector in space order."""

    __slots__ = ("_space", "_v")

    def __init__(self, space: GroundSpace, values: Mapping[str, float]):
        ids = space._index.keys()
        if values.keys() != ids:
            raise ValidationError(
                f"function table on space {space.id!r} is not total: {_not_total(ids, values.keys())}"
            )
        where = f"function table on space {space.id!r}"
        column = [values[p] for p in space._ids]
        if not set(map(type, column)) <= {float}:
            try:
                column = [float(v) for v in column]
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{where} has a non-numeric value ({exc})") from None
            except OverflowError:  # an integer too large for a float
                raise ValidationError(f"{where} has a value out of float range") from None
        v = np.array(column, np.float64)
        if not np.isfinite(v).all():
            raise ValidationError(f"{where} has non-finite values")
        self._space = space
        self._v = v

    @classmethod
    def _trusted(cls, space: GroundSpace, v: np.ndarray) -> FunctionTable:
        # internal fast path: caller passes finite float64 values, one per point in space order
        obj = cls.__new__(cls)
        obj._space = space
        obj._v = v
        return obj

    @property
    def space(self) -> GroundSpace:
        return self._space

    @property
    def space_id(self) -> str:
        return self._space.id

    @property
    def values(self) -> Mapping[str, float]:
        return MappingProxyType(dict(zip(self._space._ids, self._v.tolist())))

    def __call__(self, point_id: str) -> float:
        try:
            return self._v.item(self._space._index[point_id])
        except KeyError:
            raise UnknownPointError(point_id, self.space_id) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return _same_space(self._space, other._space) and self._v.tolist() == other._v.tolist()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FunctionTable({self.space_id!r}, {len(self._v)} values)"


class PointMap:
    """Total map between the points of two ground spaces.

    It keeps the assignment and ``_tpos``, the target position of every
    source point in source order, which pullback and pushforward gather
    through; the fibers are built when first asked for.
    """

    def __init__(self, source: GroundSpace, target: GroundSpace, assign: Mapping[str, str]):
        ids = source._index.keys()
        if assign.keys() != ids:
            raise ValidationError(f"map from {source.id!r} is not total: {_not_total(ids, assign.keys())}")
        assigned = {x: assign[x] for x in source._ids}
        try:
            tpos = list(map(target._index.__getitem__, assigned.values()))
        except KeyError:
            y = next(y for y in assigned.values() if y not in target._index)
            raise UnknownPointError(y, target.id) from None
        self._source = source
        self._target = target
        self._assign = assigned
        self._tpos = np.array(tpos, np.intp)
        self._image = frozenset(assigned.values())
        self._fiber_cache: dict[str, tuple[str, ...]] | None = None

    @property
    def _fibers(self) -> dict[str, tuple[str, ...]]:
        """Each target point's preimage in source order, built on first use."""
        if self._fiber_cache is None:
            fibers: list[list[str]] = [[] for _ in self._target._ids]
            for x, t in zip(self._source._ids, self._tpos.tolist()):
                fibers[t].append(x)
            self._fiber_cache = dict(zip(self._target._ids, map(tuple, fibers)))
        return self._fiber_cache

    @property
    def source(self) -> GroundSpace:
        return self._source

    @property
    def target(self) -> GroundSpace:
        return self._target

    @property
    def from_space(self) -> str:
        return self._source.id

    @property
    def to_space(self) -> str:
        return self._target.id

    @property
    def assign(self) -> Mapping[str, str]:
        return MappingProxyType(self._assign)

    @property
    def image(self) -> frozenset[str]:
        return self._image

    def __call__(self, point_id: str) -> str:
        try:
            return self._assign[point_id]
        except KeyError:
            raise UnknownPointError(point_id, self.from_space) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointMap):
            return NotImplemented
        return (
            _same_space(self._source, other._source)
            and _same_space(self._target, other._target)
            and self._assign == other._assign
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PointMap({self.from_space!r} -> {self.to_space!r})"


def fiber_points(f: PointMap, y: str) -> tuple[str, ...]:
    """The preimage of a target point: the source points mapping onto it, in source order."""
    try:
        return f._fibers[y]
    except KeyError:
        raise UnknownPointError(y, f.to_space) from None


def compose(g: PointMap, f: PointMap) -> PointMap:
    """The composite map ``g after f``."""
    _require_same_space(f._target, g._source, "cannot compose: inner target is not outer source")
    return PointMap(f.source, g.target, {x: g._assign[y] for x, y in f._assign.items()})


def identity_map(space: GroundSpace) -> PointMap:
    return PointMap(space, space, {p: p for p in space.point_ids})


def pullback(phi: FunctionTable, f: PointMap) -> FunctionTable:
    """The composite table ``phi after f`` on the source space of f."""
    _require_same_space(phi._space, f._target, "pullback: table does not live on the map target")
    return FunctionTable._trusted(f.source, phi._v[f._tpos])


def require_nonempty_fiber(f: PointMap, y: str) -> tuple[str, ...]:
    pts = fiber_points(f, y)
    if not pts:
        raise EmptyFiberError(f"undefined on non-image point {y!r} of space {f.to_space!r}")
    return pts


def uniform_grid_1d(space_id: str, n: int, lo: float = 0.0, hi: float = 1.0) -> GroundSpace:
    """n equally spaced points on [lo, hi], ids ``g0`` .. ``g{n-1}``."""
    if n < 2:
        raise ValidationError("1-D grid needs at least two points")
    pitch = (hi - lo) / (n - 1)
    return GroundSpace(space_id, [(f"g{i}", (lo + i * pitch,)) for i in range(n)])


def uniform_grid_2d(space_id: str, n: int, lo: float = 0.0, hi: float = 1.0) -> GroundSpace:
    """n-by-n grid on [lo, hi]^2, row-major ids ``g{i}_{j}``."""
    if n < 2:
        raise ValidationError("2-D grid needs at least two points per side")
    pitch = (hi - lo) / (n - 1)
    pts = [
        (f"g{i}_{j}", (lo + i * pitch, lo + j * pitch))
        for i in range(n)
        for j in range(n)
    ]
    return GroundSpace(space_id, pts)
