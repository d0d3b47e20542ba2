"""The suites' sized draws take what the scalar draw loops took, and leave the same stream.

The suites draw maps, weights, space sizes, tables, child seeds, atom
coordinates and offsets as one sized ``Generator`` call per run of
independent draws. This file keeps the scalar loops they replaced as
references. Each suite draws all of a trial's inputs before any of its
checks runs, no check draws from the trial's generator, and one driver,
``suites._run``, seeds every trial; so a wrapper around the draw step the
driver receives sees every trial's inputs, and they are compared, bit for
bit, with what the reference draws, as is the trial generator's state at
the end of the run. Reports of passing ``functor``, ``convexity``,
``lemmas`` and ``openmap`` runs carry only counts, so the recorded digests
do not see these draws; this test does. The kappa checker draws positions
where it drew ids; the id-valued loop is kept here too, and its draws must
be the position draws mapped to ids. The seeds, spaces and trial counts
were fixed before the first run.
"""

import numpy as np
import pytest

from maxplus import kappametric, suites
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
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
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

def ref_axioms_trial(rng, t):
    n = 10
    mu = ref_random_measure(rng, ref_plain_space("A", n))
    phi = rng.uniform(-10.0, 10.0, (100, n))
    psi = rng.uniform(-10.0, 10.0, (100, n))
    lam = rng.uniform(-5.0, 5.0, 100)
    eta = rng.uniform(0.0, 5.0, (100, n))
    return {"mu": mu, "phi": phi, "psi": psi, "lam": lam, "eta": eta}


def ref_functor_trial(rng, t):
    sx = ref_plain_space(f"X{t}", rand_int(rng, 2, 12))
    sy = ref_plain_space(f"Y{t}", rand_int(rng, 2, 12))
    sz = ref_plain_space(f"Z{t}", rand_int(rng, 2, 12))
    f = ref_random_map(rng, sx, sy)
    g = ref_random_map(rng, sy, sz)
    mu = ref_random_measure(rng, sx)
    tables = np.array([ref_random_table(rng, sy)._v for _ in range(3)])
    return {"f": f, "g": g, "mu": mu, "tables": tables}


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
    return {"f": f, "nu": nu, "seeds": seeds, "case": case, "alpha": alpha, "beta": beta}


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
    return {"mu": mu, "tests": tests}


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
    return {"n": n, "axis": axis, "mu0": mu0, "nu0": nu0, "nu_prime": nu_prime}


def ref_lemmas_trial(rng, t):
    ny = rand_int(rng, 1, 6)
    nx = rand_int(rng, ny, 12)
    sx, sy = ref_plain_space(f"X{t}", nx), ref_plain_space(f"Y{t}", ny)
    f = ref_random_surjective_map(rng, sx, sy)
    phi = ref_random_table(rng, sx)
    y0 = choose(rng, list(sy.point_ids))
    pts = [x for x, y in f.assign.items() if y == y0]
    nu = IdempotentMeasure(sx, ref_random_weights(rng, subset(rng, pts, rand_int(rng, 1, len(pts)))))
    return {"f": f, "phi": phi, "y0": y0, "nu": nu}


# suite -> (trials, the scalar reference of one trial)
LOOPS = {
    "axioms": (12, ref_axioms_trial),
    "functor": (60, ref_functor_trial),
    "convexity": (60, ref_convexity_trial),
    "density": (12, ref_density_trial),
    "openmap": (24, ref_openmap_trial),
    "lemmas": (60, ref_lemmas_trial),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("suite", sorted(LOOPS))
def test_suite_loop_draws_like_the_scalar_loop(monkeypatch, suite, seed):
    trials, ref_trial = LOOPS[suite]
    kept = []  # (t, the trial's generator, what its draw step returned)
    real = suites._run

    def run(report, draw, check):
        def kept_draw(rng, t):
            inputs = draw(rng, t)
            kept.append((t, rng, canon(inputs)))
            return inputs
        real(report, kept_draw, check)
    monkeypatch.setattr(suites, "_run", run)
    report = suites.SUITES[suite](trials, seed)
    assert report.passed
    assert [t for t, _, _ in kept] == list(range(trials))
    for t, rng, drawn in kept:
        ref_rng = trial_rng(seed, t)
        assert drawn == canon(ref_trial(ref_rng, t)), f"trial {t}"
        # read after the run, so no check drew from the trial's generator either
        assert rng.bit_generator.state == ref_rng.bit_generator.state, f"trial {t}"


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_every_suite_seeds_its_trials_through_one_driver_run(monkeypatch, suite):
    """One ``_run`` per suite run, and one ``trial_rng`` per trial, plus one for the kappa witness."""
    runs, seeded = [], []
    real_run, real_rng = suites._run, suites.trial_rng

    def run(report, draw, check):
        runs.append(suite)
        real_run(report, draw, check)

    def seeded_rng(seed, t):
        seeded.append(t)
        return real_rng(seed, t)
    monkeypatch.setattr(suites, "_run", run)
    monkeypatch.setattr(suites, "trial_rng", seeded_rng)
    trials = 3
    suites.SUITES[suite](trials, 5)
    assert runs == [suite]
    assert seeded == list(range(trials)) + ([trials] if suite == "kappa" else [])


# --- kappa draws on positions ----------------------------------------------------

def ref_kappa_draws(space, trials, seed):
    """The id-valued draw loop the kappa checker walked before it drew positions."""
    pids = list(space.point_ids)
    n = len(pids)

    def rest(base):
        return [p for p in pids if p not in base]

    def grow(rng, base, room):
        add = rand_int(rng, 0, len(room)) if room else 0
        if not add:
            return base
        return tuple(space.ordered(set(base) | set(subset(rng, room, add))))

    for t in range(trials):
        rng = trial_rng(seed, t)
        x = choose(rng, pids)
        members = tuple(subset(rng, pids, rand_int(rng, 1, n)))
        inside = choose(rng, members)
        outside = None
        grown = members
        complement = rest(members)
        if complement:
            outside = choose(rng, complement)
            grown = grow(rng, members, complement)
        x2 = choose(rng, pids) if space.has_coords else None
        base = tuple(subset(rng, pids, rand_int(rng, 1, n)))
        middle = grow(rng, base, rest(base))
        chain = (base, middle, grow(rng, middle, rest(middle)))
        yield (t, x, members, inside, outside, grown, x2, chain), rng.bit_generator.state


def kappa_spaces():
    """Spaces with and without coordinates, some with ids out of sorted order."""
    rng = np.random.default_rng(12)
    scattered = rng.uniform(0.0, 10.0, (12, 2)).tolist()
    return [
        GroundSpace("one", ["p"]),
        ref_plain_space("B5", 5),
        GroundSpace("shuffled", [f"p{(7 * i) % 11}" for i in range(11)]),
        uniform_grid_1d("H", 4),
        uniform_grid_2d("G", 3),
        GroundSpace("scattered", [(f"q{(5 * i) % 12}", tuple(c)) for i, c in enumerate(scattered)]),
    ]


@pytest.mark.parametrize("seed", SEEDS + (2**32 + 5,))
@pytest.mark.parametrize("space", kappa_spaces(), ids=lambda s: s.id)
def test_kappa_position_draws_are_the_id_draws(monkeypatch, space, seed):
    rngs = []
    real = kappametric.trial_rng

    def trial_rng_kept(seed, trial):
        rngs.append(real(seed, trial))
        return rngs[-1]

    monkeypatch.setattr(kappametric, "trial_rng", trial_rng_kept)
    ids = space.point_ids
    trials = 40
    ref = ref_kappa_draws(space, trials, seed)
    for new, (want, state) in zip(kappametric._kappa_draws(space, trials, seed), ref, strict=True):
        t, x, members, inside, outside, grown, x2, chain = new
        for points in (members, grown, *chain):
            assert type(points) is tuple and list(points) == sorted(set(points)), f"trial {t}"
        as_ids = (t, ids[x], tuple(ids[i] for i in members), ids[inside],
                  None if outside is None else ids[outside], tuple(ids[i] for i in grown),
                  None if x2 is None else ids[x2], tuple(tuple(ids[i] for i in link) for link in chain))
        assert as_ids == want, f"trial {t}"
        _, _, ref_members, _, _, ref_grown, _, ref_chain = want
        assert (grown is members) == (ref_grown is ref_members), f"trial {t}"
        assert (chain[1] is chain[0]) == (ref_chain[1] is ref_chain[0]), f"trial {t}"
        assert (chain[2] is chain[1]) == (ref_chain[2] is ref_chain[1]), f"trial {t}"
        assert rngs[-1].bit_generator.state == state, f"trial {t}"
    assert len(rngs) == trials


def test_the_kappa_spaces_reach_every_shape_of_draw():
    shapes = set()
    for space in kappa_spaces():
        for seed in SEEDS + (2**32 + 5,):
            for t, x, members, inside, outside, grown, x2, chain in kappametric._kappa_draws(space, 40, seed):
                shapes |= {("outside", outside is None), ("grown", grown is members), ("x2", x2 is None),
                           ("middle", chain[1] is chain[0]), ("union", chain[2] is chain[1])}
    assert len(shapes) == 10
