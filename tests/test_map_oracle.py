"""Point maps against the per-source loops that define them.

``PointMap`` keeps one target position per source point and makes the
assignment, the image and the fibers from it on demand. Each reference
below walks the source points one by one in source order, as the
definitions read. The maps are endomaps, maps onto one point and maps
of 2 to 12 points drawn from fixed seeds, with assignment dicts whose
keys come in source order and in a shuffled order.
"""

import contextlib
import io
import json
import random

import pytest

from maxplus import GroundSpace, PointMap, UnknownPointError, compose, fiber_points
from maxplus.cli import main


def ref_assign(source, assign):
    return {x: assign[x] for x in source.point_ids}


def ref_fibers(source, target, assign):
    fibers = {y: [] for y in target.point_ids}
    for x in source.point_ids:
        fibers[assign[x]].append(x)
    return {y: tuple(xs) for y, xs in fibers.items()}


def ref_compose(g_assign, f_assign):
    return {x: g_assign[y] for x, y in f_assign.items()}


def space(rng, name, n):
    ids = [f"{name.lower()}{i}" for i in range(n)]
    rng.shuffle(ids)  # space order is not id order
    return GroundSpace(name, ids)


def drawn(rng, source, target, shuffled):
    """An assignment dict on the source, its keys in source order or shuffled."""
    keys = list(source.point_ids)
    if shuffled:
        rng.shuffle(keys)
    return {x: rng.choice(target.point_ids) for x in keys}


def cases():
    """``(name, source, target, assign)`` for every map the oracle checks."""
    for seed in range(60):
        rng = random.Random(seed)
        shuffled = seed % 2 == 1
        source = space(rng, "X", rng.randint(2, 12))
        target = space(rng, "Y", rng.randint(2, 12))
        yield f"seed{seed}", source, target, drawn(rng, source, target, shuffled)
        yield f"endo{seed}", source, source, drawn(rng, source, source, shuffled)
        point = GroundSpace("P", ["p"])
        yield f"onto-point{seed}", source, point, drawn(rng, source, point, shuffled)
    one = GroundSpace("O", ["o"])
    yield "one-point-endomap", one, one, {"o": "o"}


CASES = list(cases())


@pytest.mark.parametrize("name, source, target, assign", CASES, ids=[c[0] for c in CASES])
def test_map_matches_the_per_source_loops(name, source, target, assign):
    f = PointMap(source, target, assign)
    want = ref_fibers(source, target, assign)
    assert f._fibers == want
    assert list(f._fibers) == list(target.point_ids)  # every target point, empty fibers included
    assert [tuple(map(source.point_ids.__getitem__, xs)) for xs in f._fiber_pos] == list(want.values())
    assert all(fiber_points(f, y) == want[y] for y in target.point_ids)
    assert list(f.assign.items()) == list(ref_assign(source, assign).items())  # source order
    assert [f(x) for x in source.point_ids] == [assign[x] for x in source.point_ids]
    assert f.image == frozenset(assign.values())
    assert f == PointMap(source, target, ref_assign(source, assign))
    if len(target) > 1:
        x = source.point_ids[-1]
        moved = {**assign, x: next(y for y in target.point_ids if y != assign[x])}
        assert f != PointMap(source, target, moved)


@pytest.mark.parametrize("seed", range(20))
def test_compose_matches_the_per_source_loop(seed):
    rng = random.Random(seed)
    x, y, z = (space(rng, name, rng.randint(1, 12)) for name in "XYZ")
    f_assign, g_assign = drawn(rng, x, y, seed % 2 == 1), drawn(rng, y, z, seed % 3 == 1)
    gf = compose(PointMap(y, z, g_assign), PointMap(x, y, f_assign))
    want = ref_assign(x, ref_compose(g_assign, f_assign))
    assert list(gf.assign.items()) == list(want.items())
    assert gf == PointMap(x, z, want)
    assert gf._fibers == ref_fibers(x, z, want)
    assert gf.image == frozenset(want.values())


@pytest.mark.parametrize("seed", range(20))
def test_unknown_target_point_is_the_earliest_in_source_order(seed):
    rng = random.Random(seed)
    source = space(rng, "X", rng.randint(2, 12))
    target = space(rng, "Y", rng.randint(1, 12))
    assign = drawn(rng, source, target, shuffled=True)
    bad = sorted(rng.sample(range(len(source)), rng.randint(1, len(source))))
    for k, i in enumerate(bad):
        assign[source.point_ids[i]] = f"missing{k}"
    with pytest.raises(UnknownPointError) as err:
        PointMap(source, target, assign)
    assert (err.value.point_id, err.value.space_id) == ("missing0", "Y")


def test_cli_names_the_earliest_missing_target_point_in_source_order(tmp_path):
    def dump(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    # the map lists c first, but b comes first in the source space
    x = dump("x.json", {"id": "X", "points": [{"id": "a"}, {"id": "b"}, {"id": "c"}]})
    y = dump("y.json", {"id": "Y", "points": [{"id": "u"}]})
    f = dump("f.json", {"from": "X", "to": "Y", "assign": {"c": "late", "a": "u", "b": "early"}})
    mu = dump("mu.json", {"space": "X", "atoms": [{"point": "a", "weight": 0.0}]})
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["pushforward", "--map", f, "--measure", mu, "--space", x, "--space", y])
    assert (code, err.getvalue()) == (2, "error: unknown point 'early' in space 'Y'\n")
