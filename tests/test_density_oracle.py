"""The density suite's 1-Lipschitz test tables against the loop they replaced.

``suites._lipschitz_table`` builds a table as whole columns: the grid
walk is one sequential accumulate and the extension to the atoms one
atoms-by-grid minimum. The per-point loop it replaced is copied here as
the reference. Every table drawn by ``run_density`` at seeds 0-7 must
have the reference's bits, and leave the generator in the reference's
state. Hand-built spaces cover one and eight atoms, atoms at the ends of
[0, 1], and scripted walks where two sums tie or a value is ``-0.0``.
"""

import copy
import math

import numpy as np
import pytest

from maxplus import GroundSpace, suites
from maxplus.rng import rand_uniform, trial_rng

lipschitz_table = suites._lipschitz_table  # kept: one test patches the suite's name


def ref_lipschitz_table(rng, space, grid_ids, grid_coords, atom_ids):
    """The loop: a walk of running sums, then a min over the grid per atom."""
    n = len(grid_ids)
    pitch = grid_coords[1] - grid_coords[0]
    steps = rng.uniform(-pitch, pitch, n - 1).tolist()
    values = {}
    v = rand_uniform(rng, -5.0, 5.0)
    values[grid_ids[0]] = v
    for g, s in zip(grid_ids[1:], steps):
        v = v + s
        values[g] = v
    for a in atom_ids:
        c = space.coords(a)[0]
        values[a] = min(values[g] + abs(c - x) for g, x in zip(grid_ids, grid_coords))
    return np.array([values[p] for p in space.point_ids])


def line_space(grid_coords, atom_coords):
    points = [(f"g{i}", (x,)) for i, x in enumerate(grid_coords)]
    points += [(f"a{j}", (c,)) for j, c in enumerate(atom_coords)]
    return GroundSpace("L", points)


def assert_same_table(rng, space, n_grid):
    """Build one table both ways from one generator state; bits and states must agree."""
    ids = space.point_ids
    grid_ids, atom_ids = ids[:n_grid], ids[n_grid:]
    grid_coords = tuple(space.coords(g)[0] for g in grid_ids)
    atoms = np.array([space.coords(a)[0] for a in atom_ids])
    ref_rng = copy.deepcopy(rng)
    want = ref_lipschitz_table(ref_rng, space, grid_ids, grid_coords, atom_ids)
    table = lipschitz_table(rng, space, np.array(grid_coords), atoms)
    assert table._v.dtype == np.float64
    assert table._v.tobytes() == want.tobytes()
    assert _state(rng) == _state(ref_rng)
    return table


def _state(rng):
    return len(rng.draws) if isinstance(rng, Scripted) else rng.bit_generator.state


class Scripted:
    """A stand-in generator whose ``uniform`` draws are given in advance."""

    def __init__(self, steps, start):
        self.draws = [np.array(steps, np.float64), start]

    def uniform(self, lo, hi, size=None):
        out = self.draws.pop(0)
        assert (size is None) == np.isscalar(out)
        return out


@pytest.mark.parametrize("seed", range(8))
def test_every_suite_table_matches_the_loop(monkeypatch, seed):
    built = []

    def checked(rng, space, grid, atoms):
        built.append(assert_same_table(rng, space, len(grid)))
        return built[-1]

    monkeypatch.setattr(suites, "_lipschitz_table", checked)
    report = suites.run_density(seed=seed)
    assert report.passed
    assert len(built) >= 200


GRID = tuple(i * 0.01 for i in range(101))


@pytest.mark.parametrize(
    "atom_coords",
    [
        (0.505,),
        (0.0123, 0.2501, 0.3333, 0.4999, 0.6105, 0.777, 0.9001, 0.999),
        (5e-324, 1e-300, 1e-17, math.nextafter(0.01, 0.0)),
        (math.nextafter(1.0, 0.0), 1.0 - 1e-12, math.nextafter(0.99, 1.0)),
    ],
    ids=["one-atom", "eight-atoms", "near-zero", "near-one"],
)
@pytest.mark.parametrize("seed", range(4))
def test_hand_built_spaces_match_the_loop(atom_coords, seed):
    space = line_space(GRID, atom_coords)
    rng = trial_rng(seed, 7)
    for _ in range(3):
        assert_same_table(rng, space, len(GRID))


def test_tied_sums_match_the_loop():
    """Two sums tie: at an atom midway between two grid points of equal walk
    value, and at one whose nearer grid point has the higher value."""
    space = line_space((0.0, 0.25, 0.5, 0.75, 1.0), (0.125, 0.5625))
    steps = (0.0, 0.125, -0.125, 0.25)
    table = assert_same_table(Scripted(steps, 1.5), space, 5)
    assert table._v.tolist() == [1.5, 1.5, 1.625, 1.5, 1.75, 1.625, 1.6875]


def test_negative_zero_walk_matches_the_loop():
    """A walk from ``-0.0`` keeps it; extension sums that cancel, and tie, are ``+0.0``."""
    space = line_space((0.0, 0.5, 1.0), (0.25, 0.75))
    table = assert_same_table(Scripted((-0.25, 0.0), -0.0), space, 3)
    assert table._v.tolist() == [0.0, -0.25, -0.25, 0.0, 0.0]
    assert [math.copysign(1.0, v) for v in table._v.tolist()] == [-1.0, -1.0, -1.0, 1.0, 1.0]
