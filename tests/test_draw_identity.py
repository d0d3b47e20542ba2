"""The suites' sized draws take what the scalar draw loops took, and leave the same stream.

The suites draw maps, weights, space sizes, tables, child seeds, atom
coordinates and offsets as one sized ``Generator`` call per run of
independent draws. This file keeps the scalar loops they replaced as
references and compares, bit for bit, the objects each trial draws and
the trial generator's final state. Reports of passing ``functor``,
``convexity``, ``lemmas`` and ``openmap`` runs carry only counts, so the
recorded digests do not see these draws; this test does. The seeds and
trial counts were fixed before the first run.
"""

import numpy as np
import pytest

from maxplus import suites
from maxplus.ground import FunctionTable, GroundSpace, PointMap, uniform_grid_1d, uniform_grid_2d
from maxplus.functor import pushforward
from maxplus.measures import IdempotentMeasure, _merge
from maxplus.rng import choose, rand_int, rand_uniform, subset, trial_rng

PAIRS = ((0, 0), (0, 1), (3, 17), (31, 499), (2**31 - 1, 7))
SEEDS = (0, 7, 1001)


# --- the scalar loops, as the suites drew before ------------------------------

def ref_plain_space(space_id, size):
    return GroundSpace(space_id, [f"p{i}" for i in range(size)])


def ref_random_weights(rng, support):
    weights = {p: -rand_uniform(rng, 0.0, 10.0) for p in support}
    weights[choose(rng, support)] = 0.0
    return weights


def ref_random_measure(rng, space, max_atoms=8):
    pids = list(space.point_ids)
    k = rand_int(rng, 1, min(max_atoms, len(pids)))
    return IdempotentMeasure(space, ref_random_weights(rng, subset(rng, pids, k)))


def ref_random_map(rng, source, target):
    tpids = list(target.point_ids)
    return PointMap(source, target, {x: choose(rng, tpids) for x in source.point_ids})


def ref_random_surjective_map(rng, source, target):
    spids = list(source.point_ids)
    tpids = list(target.point_ids)
    assign = {x: choose(rng, tpids) for x in spids}
    chosen = rng.choice(len(spids), size=len(tpids), replace=False)
    for y, i in zip(tpids, chosen):
        assign[spids[int(i)]] = y
    return PointMap(source, target, assign)


def ref_random_table(rng, space):
    return FunctionTable(space, dict(zip(space.point_ids, rng.uniform(-10.0, 10.0, len(space)).tolist())))


def canon(obj):
    """A bit-exact, comparable form of a drawn object."""
    if isinstance(obj, IdempotentMeasure):
        xy = obj.space._xy
        return ("measure", obj.space_id, obj.space.point_ids, None if xy is None else xy.tobytes(),
                [(p, w.hex()) for p, w in obj.atoms()])
    if isinstance(obj, PointMap):
        assert obj._tpos.dtype == np.intp
        return ("map", obj.source.id, obj.target.id, obj.source.point_ids, list(obj.assign.items()))
    if isinstance(obj, FunctionTable):
        return ("table", obj.space_id, obj.space.point_ids, obj._v.tobytes())
    if isinstance(obj, dict):
        return [(k, canon(v)) for k, v in obj.items()]
    if isinstance(obj, float):
        return obj.hex()
    assert type(obj) in (int, str), type(obj)
    return obj


# --- helpers -------------------------------------------------------------------

def same_draws(seed, trial, new, ref):
    a, b = trial_rng(seed, trial), trial_rng(seed, trial)
    assert canon(new(a)) == canon(ref(b))
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed,trial", PAIRS)
@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (5, 3), (12, 12), (3, 9)])
def test_random_map(seed, trial, nx, ny):
    sx, sy = ref_plain_space("X", nx), ref_plain_space("Y", ny)
    same_draws(seed, trial, lambda rng: suites._random_map(rng, sx, sy),
               lambda rng: ref_random_map(rng, sx, sy))


@pytest.mark.parametrize("seed,trial", PAIRS)
@pytest.mark.parametrize("nx,ny", [(1, 1), (4, 1), (6, 6), (12, 5), (9, 2)])
def test_random_surjective_map(seed, trial, nx, ny):
    sx, sy = ref_plain_space("X", nx), ref_plain_space("Y", ny)
    same_draws(seed, trial, lambda rng: suites._random_surjective_map(rng, sx, sy),
               lambda rng: ref_random_surjective_map(rng, sx, sy))


@pytest.mark.parametrize("seed,trial", PAIRS)
@pytest.mark.parametrize("size", [1, 2, 8])
def test_random_weights(seed, trial, size):
    support = tuple(f"a{j}" for j in range(size))
    same_draws(seed, trial, lambda rng: suites._random_weights(rng, support),
               lambda rng: ref_random_weights(rng, support))


@pytest.mark.parametrize("seed,trial", PAIRS)
@pytest.mark.parametrize("size", [1, 3, 12])
def test_random_measure_and_plain_space(seed, trial, size):
    same_draws(seed, trial, lambda rng: suites._random_measure(rng, suites._plain_space("X", size)),
               lambda rng: ref_random_measure(rng, ref_plain_space("X", size)))


# --- suite loops -----------------------------------------------------------------

class Trials:
    """The generator of every trial a suite runs, and what the trial drew.

    ``spy(name, record)`` wraps the suite module's ``name``; each call first
    hands the current trial's record and the call's arguments to ``record``.
    """

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.rngs, self.drawn = [], []
        real = suites.trial_rng

        def trial_rng_kept(seed, trial):
            self.rngs.append(real(seed, trial))
            self.drawn.append({})
            return self.rngs[-1]
        monkeypatch.setattr(suites, "trial_rng", trial_rng_kept)

    def spy(self, name, record):
        real = getattr(suites, name)

        def spied(*args):
            record(self.drawn[-1], *args)
            return real(*args)
        self.monkeypatch.setattr(suites, name, spied)

    def check(self, seed, ref_trial):
        for t, (rng, drawn) in enumerate(zip(self.rngs, self.drawn)):
            ref_rng = trial_rng(seed, t)
            assert drawn == ref_trial(ref_rng, t), f"trial {t}"
            assert rng.bit_generator.state == ref_rng.bit_generator.state, f"trial {t}"


def first(key):
    return lambda drawn, obj, *_: drawn.setdefault(key, canon(obj))


def ref_axioms_trial(rng, t):
    n = 10
    mu = ref_random_measure(rng, ref_plain_space("A", n))
    for shape in ((100, n), (100, n)):
        rng.uniform(-10.0, 10.0, shape)
    rng.uniform(-5.0, 5.0, 100)
    rng.uniform(0.0, 5.0, (100, n))
    return {"mu": canon(mu)}


def ref_functor_trial(rng, t):
    sx = ref_plain_space(f"X{t}", rand_int(rng, 2, 12))
    sy = ref_plain_space(f"Y{t}", rand_int(rng, 2, 12))
    sz = ref_plain_space(f"Z{t}", rand_int(rng, 2, 12))
    f = ref_random_map(rng, sx, sy)
    g = ref_random_map(rng, sy, sz)
    mu = ref_random_measure(rng, sx)
    tables = [ref_random_table(rng, sy) for _ in range(3)]
    return {"f": canon(f), "g": canon(g), "mu": canon(mu), "tables": list(map(canon, tables))}


def ref_convexity_trial(rng, t):
    sx = ref_plain_space(f"X{t}", rand_int(rng, 2, 12))
    sy = ref_plain_space(f"Y{t}", rand_int(rng, 1, 12))
    f = ref_random_map(rng, sx, sy)
    image = [y for y in sy.point_ids if y in f.image]
    k = rand_int(rng, 1, min(8, len(image)))
    nu = IdempotentMeasure(sy, ref_random_weights(rng, subset(rng, image, k)))
    seeds = [rand_int(rng, 0, 2**31 - 1), rand_int(rng, 0, 2**31 - 1)]
    case = suites._COEFF_CASES[t % len(suites._COEFF_CASES)]
    alpha, beta = {
        "both-zero": lambda: (0.0, 0.0),
        "beta-negative": lambda: (0.0, -rand_uniform(rng, 0.1, 8.0)),
        "alpha-negative": lambda: (-rand_uniform(rng, 0.1, 8.0), 0.0),
        "alpha-bottom": lambda: (-np.inf, 0.0),
        "beta-bottom": lambda: (0.0, -np.inf),
    }[case]()
    return {"f": canon(f), "nu": canon(nu), "seeds": seeds, "coefficients": (canon(alpha), canon(beta))}


N_GRID = 101
GRID_IDS = tuple(f"g{i}" for i in range(N_GRID))
GRID_COORDS = tuple(i * (1.0 / (N_GRID - 1)) for i in range(N_GRID))


def ref_density_trial(rng, t):
    s = rand_int(rng, 1, 8)
    used = set(GRID_COORDS)
    atom_coords = []
    for _ in range(s):
        c = rand_uniform(rng, 0.0, 1.0)
        while c in used:
            c = (c + 1.3e-7) % 1.0
        used.add(c)
        atom_coords.append(c)
    atom_ids = tuple(f"a{j}" for j in range(s))
    points = [(g, (x,)) for g, x in zip(GRID_IDS, GRID_COORDS)]
    points += [(a, (c,)) for a, c in zip(atom_ids, atom_coords)]
    space = GroundSpace(f"D{t}", points)
    mu = IdempotentMeasure(space, ref_random_weights(rng, atom_ids))
    k = rand_int(rng, 1, 5)
    grid, atoms = np.array(GRID_COORDS), np.array(atom_coords)
    tests = [suites._lipschitz_table(rng, space, grid, atoms) for _ in range(k)]
    return {"mu": canon(mu), "tests": list(map(canon, tests))}


SIZES = (10, 15, 20, 25)
PLANES = {n: uniform_grid_2d(f"G{n}", n) for n in SIZES}
LINES = {n: uniform_grid_1d(f"H{n}", n) for n in SIZES}


def ref_openmap_trial(rng, t):
    n, axis = SIZES[t % len(SIZES)], t % 2
    f = suites._grid_projection(PLANES[n], LINES[n], n, axis)
    mu0 = ref_random_measure(rng, PLANES[n])
    nu0 = pushforward(f, mu0)
    max_offset = int(0.2 * (n - 1))
    slid = [min(max(i + rand_int(rng, -max_offset, max_offset), 0), n - 1) for i in nu0._idx.tolist()]
    nu_prime = IdempotentMeasure._trusted(LINES[n], *_merge(LINES[n], slid, nu0._w.tolist()))
    return {"mu0": canon(mu0), "nu_prime": canon(nu_prime)}


def ref_lemmas_trial(rng, t):
    ny = rand_int(rng, 1, 6)
    nx = rand_int(rng, ny, 12)
    sx, sy = ref_plain_space(f"X{t}", nx), ref_plain_space(f"Y{t}", ny)
    f = ref_random_surjective_map(rng, sx, sy)
    phi = ref_random_table(rng, sx)
    y0 = choose(rng, list(sy.point_ids))
    pts = [x for x, y in f.assign.items() if y == y0]
    nu = IdempotentMeasure(sx, ref_random_weights(rng, subset(rng, pts, rand_int(rng, 1, len(pts)))))
    return {"f": canon(f), "y0": y0, "nu": canon(nu), "phi": canon(phi)}


def record_tables(drawn, phi, f):
    drawn.setdefault("tables", []).append(canon(phi))


def record_seed(drawn, f, nu, seed):
    drawn.update(f=canon(f), nu=canon(nu))
    drawn.setdefault("seeds", []).append(canon(seed))


def record_combination(drawn, alpha, mu1, beta, mu2):
    drawn["coefficients"] = (canon(alpha), canon(beta))


def record_fiber_bound(drawn, f, y0, nu, phi):
    drawn.update(f=canon(f), y0=y0, nu=canon(nu), phi=canon(phi))


def record_approximation(drawn, mu, dense, tests, eps):
    if "mu" not in drawn:  # the coarseness demo after the last trial approximates once more
        drawn.update(mu=canon(mu), tests=list(map(canon, tests)))


def record_lift(drawn, f, mu0, nu_prime):
    drawn.update(mu0=canon(mu0), nu_prime=canon(nu_prime))


# suite -> (trials, spies, the scalar reference of one trial)
LOOPS = {
    "axioms": (12, {"_integrate_rows": first("mu")}, ref_axioms_trial),
    "functor": (60, {"compose": lambda d, g, f: d.update(f=canon(f), g=canon(g)),
                     "support_image_check": lambda d, f, mu: d.setdefault("mu", canon(mu)),
                     "pullback": record_tables}, ref_functor_trial),
    "convexity": (60, {"sample_preimage": record_seed, "combine": record_combination}, ref_convexity_trial),
    "density": (12, {"approximate_on_dense": record_approximation}, ref_density_trial),
    "openmap": (24, {"lift_toward": record_lift}, ref_openmap_trial),
    "lemmas": (60, {"check_fiber_bounds": record_fiber_bound}, ref_lemmas_trial),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("suite", sorted(LOOPS))
def test_suite_loop_draws_like_the_scalar_loop(monkeypatch, suite, seed):
    trials, spies, ref_trial = LOOPS[suite]
    kept = Trials(monkeypatch)
    for name, record in spies.items():
        kept.spy(name, record)
    report = suites.SUITES[suite](trials, seed)
    assert report.passed
    assert len(kept.rngs) == trials
    kept.check(seed, ref_trial)
