"""Shared fixtures and strategy helpers for the test suite."""

import contextlib
import functools

import pytest
from hypothesis import settings, strategies as st

from maxplus import FunctionTable, GroundSpace, IdempotentMeasure, Point, ground, measures

# Tier-1 passes or fails the same way on every run: hypothesis draws from a
# fixed seed, keeps no example database and times no example.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


# ---------------------------------------------------------------------------
# The two executions of the measure kernels
# ---------------------------------------------------------------------------

# ``measures._merge`` and ``integrate`` run on Python floats up to
# ``measures._FEW`` atoms and on numpy columns above it (the measured reason
# is in the ``_FEW`` docstring); the oracle tests run each way.
KERNELS = ("python", "numpy")


@contextlib.contextmanager
def kernel_path(kernel: str):
    """Run every merge and integral the given way, whatever the atom count."""
    saved = measures._FEW
    measures._FEW = 10**9 if kernel == "python" else -1
    try:
        yield
    finally:
        measures._FEW = saved


@contextlib.contextmanager
def geometry_path(kernel: str):
    """Answer every nearest-point question the given way, whatever its size.

    Up to ``ground._FEW_DIST`` candidate-member pairs ``math.dist`` loops
    in Python; above it numpy filters and ``math.dist`` decides.
    """
    saved = ground._FEW_DIST
    ground._FEW_DIST = 10**9 if kernel == "python" else -1
    try:
        yield
    finally:
        ground._FEW_DIST = saved


def on_both_geometry_paths(test):
    """Run a test once on each :func:`geometry_path`, under its own name."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for kernel in KERNELS:
            with geometry_path(kernel):
                test(*args, **kwargs)

    return run


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# Finite weights well inside the range where max/+ are exact.
finite_weights = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

# Weights that may also be bottom (represented as None before coercion).
maybe_bottom = st.one_of(st.none(), finite_weights)


def measures_on(space: GroundSpace):
    """Strategy producing normalized measures on ``space``.

    Draws a non-empty subset of the points with finite raw weights and
    re-normalizes, so every generated measure satisfies the norm axiom.
    """
    ids = list(space.point_ids)
    return (
        st.dictionaries(
            st.sampled_from(ids), finite_weights, min_size=1, max_size=len(ids)
        )
        .map(lambda raw: IdempotentMeasure.from_weights(space, raw))
    )


def tables_on(space: GroundSpace):
    """Strategy producing total test functions on ``space``."""
    ids = list(space.point_ids)
    return st.lists(
        finite_weights, min_size=len(ids), max_size=len(ids)
    ).map(lambda vals: FunctionTable(space, dict(zip(ids, vals))))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def abc_space() -> GroundSpace:
    """Three bare points, no coordinates."""
    return GroundSpace("X", [Point("a"), Point("b"), Point("c")])


@pytest.fixture
def uv_space() -> GroundSpace:
    """Two bare points, used as a pushforward target."""
    return GroundSpace("Y", [Point("u"), Point("v")])


@pytest.fixture
def segment_space() -> GroundSpace:
    """Five points on the unit interval plus two off-grid atoms."""
    pts = [Point(f"g{i}", (i * 0.25,)) for i in range(5)]
    pts += [Point("a0", (0.3,)), Point("a1", (0.9,))]
    return GroundSpace("L", pts)
