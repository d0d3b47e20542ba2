"""Finite-support idempotent probability measures over the max-plus semiring.

The semiring replaces + with max and x with +; a "probability measure"
becomes a finite weighted family of points whose largest weight is 0,
and integration becomes a maximum of weight-shifted function values.
The package provides the measure algebra (integration, pushforward,
max-plus convex combination), weak-topology utilities (neighborhoods,
dense-subset approximation), fiber-extremal lifting along point maps,
set-distance axiom checking, and seeded property suites exercising all
of it on finite metric ground models.

``import maxplus`` loads no submodule. Each name in ``__all__`` is
imported from its home module in ``_EXPORTS`` on first use and then
kept in the package namespace, so a caller pays only for the modules
it reads from.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CoefficientError", "DenseSetTooCoarseError", "EmptyFiberError", "LiftImpossibleError",
        "MaxPlusError", "MetricUnavailableError", "NoMassError", "NormAxiomError",
        "SpaceMismatchError", "UnknownPointError", "ValidationError",
    ),
    "functor": (
        "FiberBoundReport", "check_fiber_bounds", "fiber_inf", "fiber_sup", "lift_toward",
        "preimage_contains", "pushforward", "sample_preimage", "support_displacement",
        "support_image_check",
    ),
    "ground": (
        "FunctionTable", "GroundSpace", "Point", "PointMap", "compose", "fiber_points",
        "identity_map", "pullback", "uniform_grid_1d", "uniform_grid_2d",
    ),
    "kappametric": (
        "KappaAxiomReport", "KappaCandidate", "check_kappa_axioms", "constant_candidate",
        "distance_candidate", "squared_distance_candidate",
    ),
    "measures": (
        "AxiomCheckReport", "IdempotentMeasure", "check_axioms", "combine", "make_measure",
        "max_weight_gap", "min_plus_functional", "sum_functional",
    ),
    "suites": ("SUITES", "SuiteReport"),
    "weaktop": ("WeakNeighborhood", "approximate_on_dense"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
