"""Stream canary: the random streams every recorded ``check`` output rests on.

``bench/digests.json``, the pinned reports in ``test_suite_failures.py``
and the oracle files were recorded under numpy 2.4.6. NEP 19 keeps the
bit generators' raw streams fixed across numpy releases but lets
``Generator`` methods change their algorithms. Under another numpy, read
this file first: each failure names the layer that moved, where the
recorded digests would only all differ at once.

The last tests pin what the suites' sized draws rely on: one sized
``integers`` (int64, range below 2**32) or ``uniform`` call returns the
same values as that many scalar calls and leaves the same generator state.
"""

import hashlib

import numpy as np
import pytest

from maxplus.cli import main
from maxplus.rng import choose, rand_int, rand_uniform, subset, trial_rng

PAIRS = ((0, 0), (1, 7), (2**31 - 1, 499))

RAW = {
    (0, 0): [11749869230777074271, 4976686463289251617, 755828109848996024, 304881062738325533,
             15002187965291974971, 16837368535893154894, 11190454901533422207, 13456836363123071557],
    (1, 7): [6634865250273356968, 11373273019218960083, 11894115006064561927, 6336030380540765095,
             16080559095549923028, 4881619344749423456, 6793092948314914845, 3271378855325619283],
    (2**31 - 1, 499): [18135287474783005640, 1240987218139699244, 10755288131230465499,
                       8190344375970394110, 10423282108596542780, 8667296607192046825,
                       3143875917439422498, 13699771865879457661],
}

# What each helper returns on a fresh ``trial_rng(seed, trial)``.
HELPERS = {
    "uniform (rand_uniform)": lambda rng: [rand_uniform(rng, -10.0, 10.0).hex() for _ in range(4)],
    "integers (rand_int)": lambda rng: [rand_int(rng, 2, 12) for _ in range(6)],
    "integers (choose)": lambda rng: [choose(rng, list("abcdefg")) for _ in range(6)],
    "choice (subset)": lambda rng: [subset(rng, list(range(20)), 5) for _ in range(2)],
}

PINNED = {
    (0, 0): {
        "uniform (rand_uniform)": ["0x1.5e9f361e81990p+1", "-0x1.26ac4a2571befp+2",
                                   "-0x1.25c6e5d8bafd4p+3", "-0x1.356c1cb8cfd8ap+3"],
        "integers (rand_int)": [11, 9, 7, 4, 5, 2],
        "integers (choose)": ["f", "e", "d", "b", "c", "a"],
        "choice (subset)": [[5, 6, 9, 10, 13], [9, 11, 12, 13, 16]],
    },
    (1, 7): {
        "uniform (rand_uniform)": ["-0x1.673a3c1438bc0p+1", "0x1.2a5bd38728ce0p+1",
                                   "0x1.72a3d9cd8d364p+1", "-0x1.90b2fb62e1d8cp+1"],
        "integers (rand_int)": [10, 5, 7, 8, 8, 9],
        "integers (choose)": ["f", "c", "d", "e", "d", "e"],
        "choice (subset)": [[6, 9, 11, 12, 19], [1, 4, 7, 10, 13]],
    },
    (2**31 - 1, 499): {
        "uniform (rand_uniform)": ["0x1.3531b5af01146p+3", "-0x1.14f1d1c015f52p+3",
                                   "0x1.a9312f6d8b558p+0", "-0x1.1eb907afeb540p+0"],
        "integers (rand_int)": [8, 12, 10, 2, 5, 8],
        "integers (choose)": ["e", "g", "f", "a", "b", "e"],
        "choice (subset)": [[1, 5, 9, 13, 16], [3, 8, 9, 13, 18]],
    },
}

MOVED = "under numpy {}, so the recorded check digests will not match".format(np.__version__)


def _raw_stream_holds(seed, trial):
    return trial_rng(seed, trial).bit_generator.random_raw(8).tolist() == RAW[(seed, trial)]


@pytest.mark.parametrize("seed,trial", PAIRS)
def test_seed_sequence_and_pcg64_raw_stream(seed, trial):
    assert _raw_stream_holds(seed, trial), (
        f"SeedSequence/PCG64 moved: trial_rng({seed}, {trial}) gives another raw stream {MOVED}"
    )


@pytest.mark.parametrize("helper", sorted(HELPERS))
@pytest.mark.parametrize("seed,trial", PAIRS)
def test_generator_methods_behind_the_rng_helpers(seed, trial, helper):
    got = HELPERS[helper](trial_rng(seed, trial))
    if got != PINNED[(seed, trial)][helper]:
        layer = ("the Generator method" if _raw_stream_holds(seed, trial)
                 else "SeedSequence/PCG64 (see the raw-stream test)")
        pytest.fail(f"Generator.{helper} moved at ({seed}, {trial}); the layer is {layer}, {MOVED}")


def _twins(seed, trial, lead):
    """Two generators in one state, after ``lead`` scalar 32-bit draws on each."""
    pair = trial_rng(seed, trial), trial_rng(seed, trial)
    for rng in pair:
        for _ in range(lead):
            rng.integers(0, 10)
    return pair


def _same_draw(kind, sized, scalar, seed, trial, lead):
    if not _raw_stream_holds(seed, trial):
        pytest.fail(f"SeedSequence/PCG64 moved (see the raw-stream test) {MOVED}")
    where = f"at ({seed}, {trial}) after {lead} lead draws {MOVED}"
    assert sized[0] == scalar[0], f"Generator.{kind}: a sized call draws other values than scalar calls {where}"
    assert sized[1] == scalar[1], f"Generator.{kind}: a sized call leaves another state than scalar calls {where}"


# (low, high) of ``integers``: width 1 draws nothing, 2**31 is the width of the suites' child seeds
BOUNDS = ((0, 1), (0, 2), (2, 13), (-1, 2), (0, 12), (0, 2**31), (0, 2**32 - 1))


@pytest.mark.parametrize("dtype", [np.int64, np.intp])  # the suites draw map positions as intp
@pytest.mark.parametrize("lead", [0, 1, 3])
@pytest.mark.parametrize("low,high", BOUNDS)
@pytest.mark.parametrize("seed,trial", PAIRS)
def test_sized_integers_draw_like_scalar_calls(seed, trial, low, high, lead, dtype):
    a, b = _twins(seed, trial, lead)
    sized = a.integers(low, high, size=7, dtype=dtype)
    scalar = [int(b.integers(low, high)) for _ in range(7)]
    _same_draw("integers", (sized.tolist(), a.bit_generator.state), (scalar, b.bit_generator.state),
               seed, trial, lead)


@pytest.mark.parametrize("seed,trial", PAIRS)
def test_a_width_one_range_draws_nothing(seed, trial):
    rng = trial_rng(seed, trial)
    before = rng.bit_generator.state
    assert rng.integers(3, 4, size=5).tolist() == [3] * 5
    assert rng.bit_generator.state == before, f"Generator.integers drew for a width-1 range {MOVED}"


@pytest.mark.parametrize("shape", [5, (3, 4)])
@pytest.mark.parametrize("lead", [0, 1])
@pytest.mark.parametrize("seed,trial", PAIRS)
def test_sized_uniform_draws_like_scalar_calls(seed, trial, lead, shape):
    a, b = _twins(seed, trial, lead)
    sized = a.uniform(-10.0, 10.0, shape)
    scalar = [float(b.uniform(-10.0, 10.0)).hex() for _ in range(sized.size)]
    bits = list(map(float.hex, sized.ravel().tolist()))
    _same_draw("uniform", (bits, a.bit_generator.state), (scalar, b.bit_generator.state), seed, trial, lead)


# --- the two ways ``trial_rng`` hands its entropy to SeedSequence -----------------

EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 + 1)
GRID = tuple((s, t) for s in EDGES for t in EDGES) + tuple((s, t) for s in range(4) for t in range(0, 300, 37))
GRID += ((True, 0), (np.int64(5), 3))  # not ints: they go in as the list


@pytest.mark.parametrize("seed,trial", GRID)
def test_uint32_words_and_the_list_seed_one_stream(seed, trial):
    """Seed and trial below 2**32 go in as uint32 words, others as a list: the raw stream is the list's."""
    listed = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))
    rng = trial_rng(seed, trial)
    assert rng.bit_generator.random_raw(8).tolist() == listed.bit_generator.random_raw(8).tolist()
    assert rng.bit_generator.state == listed.bit_generator.state


@pytest.mark.parametrize("seed,trial", [(-1, 0), (0, -1), (1.5, 0), (0, 2.0)])
def test_seeds_the_list_refuses_are_refused(seed, trial):
    with pytest.raises((TypeError, ValueError)) as listed:
        np.random.SeedSequence([seed, trial])
    with pytest.raises(listed.type):
        trial_rng(seed, trial)


# ``check`` stdout with a seed above 2**32, whose trials seed through the list:
# recorded before ``trial_rng`` took the uint32 path.
LIST_SEEDED = {
    ("kappa", 2**64 + 1): "292b715597c7f2dcfdf5d38970cee0ca1f3b599d96d9656c8fa7a218525deaa2",
    ("convexity", 2**32): "f44321b0b6dda2059256845872511501a38f8fc3c1e3a16b6b84e87728006ac3",
}


@pytest.mark.parametrize("suite,seed", sorted(LIST_SEEDED))
def test_check_stdout_with_a_seed_above_2_32(monkeypatch, capsys, suite, seed):
    monkeypatch.delenv("MAXPLUS_TOL", raising=False)
    assert main(["check", suite, "--seed", str(seed)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == LIST_SEEDED[(suite, seed)]
