"""Transport and nearest-point results against explicit reference loops.

Pushforward, dense approximation, lifting, support displacement and the
two kappa candidates all move atoms or measure distances through shared
kernels. Each is compared bit for bit with a plain loop that spells the
operation out, on random 2-D point clouds and on square grids, where
many points are equidistant and every tie must go to the earliest point,
on both paths of each kernel. The nearest-point kernel is also pinned
against a ``math.dist`` loop at coordinate scales where numpy's squares
underflow or overflow.
"""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from maxplus import (
    FunctionTable,
    GroundSpace,
    IdempotentMeasure,
    PointMap,
    approximate_on_dense,
    distance_candidate,
    fiber_points,
    lift_toward,
    pushforward,
    squared_distance_candidate,
    support_displacement,
    ground,
    uniform_grid_2d,
)
from tests.conftest import KERNELS, geometry_path, kernel_path

# --- reference loops ------------------------------------------------------------


def ref_pushforward(f, mu):
    out = {}
    for pid, w in mu.atoms():
        y = f(pid)
        cur = out.get(y)
        if cur is None or w > cur:
            out[y] = w
    return [(y, out[y]) for y in sorted(out, key=f.target.index)]


def ref_nearest_dense_point(space, dense_ordered, pid):
    target = space.coords(pid)
    best = None
    best_d = math.inf
    for y in dense_ordered:
        d = math.dist(space.coords(y), target)
        if d < best_d:
            best, best_d = y, d
    return best


def ref_approximate_on_dense(mu, dense):
    space = mu.space
    dense_ordered = space.ordered(set(dense))
    out = {}
    for x, w in mu.atoms():
        y = ref_nearest_dense_point(space, dense_ordered, x)
        cur = out.get(y)
        if cur is None or w > cur:
            out[y] = w
    return [(y, out[y]) for y in dense_ordered if y in out]


def ref_lift_toward(f, base, target):
    source = f.source
    anchor_coords = [source.coords(s) for s in base.support]
    out = {}
    for y, w in target.atoms():
        best = None
        best_d = math.inf
        for x in fiber_points(f, y):
            cx = source.coords(x)
            d = min(math.dist(cx, ca) for ca in anchor_coords)
            if d < best_d:
                best, best_d = x, d
        out[best] = w
    return [(x, out[x]) for x in sorted(out, key=source.index)]


def ref_support_displacement(base, other):
    space = base.space
    anchor_coords = [space.coords(s) for s in base.support]
    worst = 0.0
    for x in other.support:
        cx = space.coords(x)
        d = min(math.dist(cx, ca) for ca in anchor_coords)
        if d > worst:
            worst = d
    return worst


def ref_rho(space, x, members):
    cx = space.coords(x)
    return min(math.dist(cx, space.coords(c)) for c in members)


# --- strategies -----------------------------------------------------------------

# half-integers make many equidistant pairs; arbitrary floats make few
coordinate = st.one_of(
    st.integers(-6, 6).map(lambda k: k * 0.5),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
cloud = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=16, unique=True).map(
    lambda cs: GroundSpace("P", [(f"p{i}", c) for i, c in enumerate(cs)])
)
grid = st.tuples(st.integers(2, 5), st.booleans()).map(
    lambda nb: uniform_grid_2d("P", nb[0], 0.0, float(nb[0] - 1) if nb[1] else 1.0)
)
weight = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -2.5]), st.floats(-10.0, 0.0))


def measure_on(draw, space, candidates):
    support = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    weights = {p: draw(weight) for p in support}
    weights[draw(st.sampled_from(support))] = 0.0
    return IdempotentMeasure(space, weights)


@st.composite
def scenes(draw):
    space = draw(st.one_of(cloud, grid))
    ids = list(space.point_ids)
    target = GroundSpace("T", [f"t{j}" for j in range(draw(st.integers(1, 6)))])
    f = PointMap(space, target, {x: draw(st.sampled_from(target.point_ids)) for x in ids})
    return {
        "space": space,
        "f": f,
        "mu": measure_on(draw, space, ids),
        "other": measure_on(draw, space, ids),
        "lift_target": measure_on(draw, target, sorted(f.image, key=target.index)),
        "dense": draw(st.lists(st.sampled_from(ids), min_size=1)),
        "x": draw(st.sampled_from(ids)),
        "members": tuple(draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))),
    }


def bits(pairs):
    return [(p, w.hex()) for p, w in pairs]


def _signed_zero_fiber():
    """Two atoms, -0.0 before 0.0, in the one fiber over t0: the first zero must win."""
    space = GroundSpace("P", [("p0", (0.0, 0.0)), ("p1", (1.0, 0.0)), ("p2", (0.0, 1.0))])
    target = GroundSpace("T", ["t0", "t1"])
    f = PointMap(space, target, {"p0": "t0", "p1": "t0", "p2": "t1"})
    return {
        "space": space,
        "f": f,
        "mu": IdempotentMeasure(space, {"p0": -0.0, "p1": 0.0, "p2": -1.0}),
        "other": IdempotentMeasure(space, {"p1": -0.0, "p2": 0.0}),
        "lift_target": IdempotentMeasure(target, {"t0": -0.0, "t1": 0.0}),
        "dense": ["p2", "p1"],
        "x": "p0",
        "members": ("p1", "p2"),
    }


@settings(max_examples=300, deadline=None)
@given(scenes())
@example(_signed_zero_fiber())
def test_transport_and_distances_match_reference_loops(scene):
    space, f, mu, other = scene["space"], scene["f"], scene["mu"], scene["other"]

    for kernel, geometry in itertools.product(KERNELS, KERNELS):
        with kernel_path(kernel), geometry_path(geometry):
            pushed = pushforward(f, mu)
            nu = approximate_on_dense(mu, scene["dense"], [FunctionTable(space, dict.fromkeys(space.point_ids, 0.0))], 1.0)
            lifted = lift_toward(f, mu, scene["lift_target"])
        assert bits(pushed.atoms()) == bits(ref_pushforward(f, mu))
        assert bits(nu.atoms()) == bits(ref_approximate_on_dense(mu, scene["dense"]))
        assert bits(lifted.atoms()) == bits(ref_lift_toward(f, mu, scene["lift_target"]))

    x, members = scene["x"], scene["members"]
    want = ref_rho(space, x, members)
    for geometry in KERNELS:
        with geometry_path(geometry):
            got = support_displacement(mu, other)
            rho = distance_candidate(space).rho(x, members)
            squared = squared_distance_candidate(space).rho(x, members)
        assert got.hex() == ref_support_displacement(mu, other).hex()
        assert rho.hex() == want.hex()
        assert squared.hex() == (want**2).hex()


# --- the nearest-point kernel at float extremes ---------------------------------------


def ref_nearest(space, cands, anchor_sets):
    """Per anchor set: the index of the earliest candidate at least ``math.dist`` to a member, and that distance."""
    out = []
    for anchors in anchor_sets:
        best = None
        for i, c in enumerate(cands):
            d = min(math.dist(space.coords(a), space.coords(c)) for a in anchors)
            if best is None or d < best[1]:
                best = (i, d)
        out.append(best)
    return out


def at(space, cands, anchor_sets):
    """The kernel's arguments for questions given in point ids: the same points as positions."""
    return [space.index(p) for p in cands], [[space.index(p) for p in s] for s in anchor_sets]


def extreme_case(seed: str, scale: float, dim: int, ties: bool):
    """A random nearest-point question on coordinates of the given scale.

    With ``ties`` the coordinates are half-integers times the scale, so
    many candidates are equidistant; one candidate may coincide with an
    anchor, and the sets may be singletons or larger.
    """
    rng = random.Random(seed)

    def draw():
        if ties:
            return tuple(rng.randint(-6, 6) * 0.5 * scale for _ in range(dim))
        return tuple(rng.uniform(-4.0, 4.0) * scale for _ in range(dim))

    coords = list(dict.fromkeys(draw() for _ in range(rng.randint(2, 40))))
    space = GroundSpace("E", [(f"p{i}", c) for i, c in enumerate(coords)])
    ids = list(space.point_ids)
    cands = rng.sample(ids, rng.randint(1, len(ids)))
    k = rng.choice((1, 1, 2, rng.randint(1, len(ids))))
    anchor_sets = [rng.sample(ids, k) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.5:  # a candidate that is also a member of the first set
        anchor_sets[0][0] = cands[rng.randrange(len(cands))]
    return space, cands, anchor_sets


SCALES = (1e-300, 1e-160, 1e150, 1e154, 1e300)


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("scale", SCALES, ids=[f"{s:g}" for s in SCALES])
def test_nearest_kernel_matches_math_dist_loop_at_float_extremes(scale, dim):
    for i in range(140):
        space, cands, anchor_sets = extreme_case(f"{scale}/{dim}/{i}", scale, dim, ties=i % 2 == 0)
        want = [(j, d.hex()) for j, d in ref_nearest(space, cands, anchor_sets)]
        for geometry in KERNELS:
            with geometry_path(geometry):
                got = [(j, d.hex()) for j, d in ground._nearest(space, *at(space, cands, anchor_sets))]
            assert got == want, (geometry, cands, anchor_sets)


# Two candidates whose order numpy's estimate gets wrong: ``math.dist`` puts
# the first at most as far from the anchor as the second, numpy puts it
# farther. In normal range the gap is an ulp, which the relative slack of the
# filter covers; among subnormal squares it is far larger, which only the
# absolute slack covers. Both must still pick the first.
MISORDERED = {
    "2d": ((-0.7877811657901435, 0.1205922671679045),
           (-2.693036869239796, -1.103671998697232), (-2.01204543165528, -1.7846634362817477)),
    "3d": ((0.07039962845954184, 0.3185989786086998, -0.8678992875556961),
           (-2.4661010841913744, 2.1425059784871627, -3.1689500144628746),
           (1.8943066283380041, -1.9824517482984794, -3.4044000002066124)),
    "3d-1e150": ((-8.496588139552993e+149, 1.2095854574427633e+147, 6.236531063478556e+149),
                 (4.0309233784826053e+149, -1.9597694516959118e+150, 2.46332127096555e+149),
                 (4.030923378482605e+149, -3.761113937938578e+149, -1.3373259308054983e+150)),
    "2d-subnormal": ((0.0, 0.0), (2.083328437284365e-160, 2.4592033512817356e-160), (3.223032500697602e-160, 0.0)),
    "3d-subnormal": ((0.0, 0.0, 0.0), (2.654469466024998e-160, 1.0512293329905687e-160, 5.5250257932361716e-161),
                     (2.90801484809794e-160, 0.0, 0.0)),
}


@pytest.mark.parametrize("case", MISORDERED)
def test_nearest_kernel_keeps_what_numpy_misorders(case):
    anchor, first, second = MISORDERED[case]
    far = tuple(10.0 * abs(c) + 1.0 for c in second)
    space = GroundSpace("M", [("a", anchor), ("c1", first), ("c2", second), ("far", far)])
    assert math.dist(anchor, first) <= math.dist(anchor, second)
    for anchor_sets in ([["a"]], [["far", "a"]]):
        want = ref_nearest(space, ["c1", "c2"], anchor_sets)
        assert want[0][0] == 0
        for geometry in KERNELS:
            with geometry_path(geometry):
                assert ground._nearest(space, *at(space, ["c1", "c2"], anchor_sets)) == want, geometry


@pytest.mark.parametrize("block", (1, 5, 64, 1 << 18))
def test_nearest_kernel_answers_the_same_in_any_block_size(monkeypatch, block):
    # small blocks split the anchor sets, then the candidates of one set, into several passes
    monkeypatch.setattr(ground, "_BLOCK", block)
    for i in range(40):
        space, cands, anchor_sets = extreme_case(f"block/{i}", 1.0, 1 + i % 3, ties=i % 2 == 0)
        with geometry_path("numpy"):
            got = ground._nearest(space, *at(space, cands, anchor_sets))
        assert got == ref_nearest(space, cands, anchor_sets)
