"""Transport and nearest-point results against explicit reference loops.

Pushforward, dense approximation, lifting, support displacement and the
two kappa candidates all move atoms or measure distances through shared
kernels. Each is compared bit for bit with a plain loop that spells the
operation out, on random 2-D point clouds and on square grids, where
many points are equidistant and every tie must go to the earliest point.
"""

import math

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
    uniform_grid_2d,
)
from tests.conftest import KERNELS, kernel_path

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

    for kernel in KERNELS:
        with kernel_path(kernel):
            pushed = pushforward(f, mu)
            nu = approximate_on_dense(mu, scene["dense"], [FunctionTable(space, dict.fromkeys(space.point_ids, 0.0))], 1.0)
            lifted = lift_toward(f, mu, scene["lift_target"])
        assert bits(pushed.atoms()) == bits(ref_pushforward(f, mu))
        assert bits(nu.atoms()) == bits(ref_approximate_on_dense(mu, scene["dense"]))
        assert bits(lifted.atoms()) == bits(ref_lift_toward(f, mu, scene["lift_target"]))

    got = support_displacement(mu, other)
    assert got.hex() == ref_support_displacement(mu, other).hex()

    x, members = scene["x"], scene["members"]
    want = ref_rho(space, x, members)
    assert distance_candidate(space).rho(x, members).hex() == want.hex()
    assert squared_distance_candidate(space).rho(x, members).hex() == (want**2).hex()
