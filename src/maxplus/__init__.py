"""Finite-support idempotent probability measures over the max-plus semiring.

The semiring replaces + with max and x with +; a "probability measure"
becomes a finite weighted family of points whose largest weight is 0,
and integration becomes a maximum of weight-shifted function values.
The package provides the measure algebra (integration, pushforward,
max-plus convex combination), weak-topology utilities (neighborhoods,
dense-subset approximation), fiber-extremal lifting along point maps,
set-distance axiom checking, and seeded property suites exercising all
of it on finite metric ground models.
"""

from .errors import (
    CoefficientError,
    DenseSetTooCoarseError,
    EmptyFiberError,
    LiftImpossibleError,
    MaxPlusError,
    MetricUnavailableError,
    NoMassError,
    NormAxiomError,
    SpaceMismatchError,
    UnknownPointError,
    ValidationError,
)
from .functor import (
    FiberBoundReport,
    check_fiber_bounds,
    fiber_inf,
    fiber_sup,
    lift_toward,
    preimage_contains,
    pushforward,
    sample_preimage,
    support_displacement,
    support_image_check,
)
from .ground import (
    FunctionTable,
    GroundSpace,
    Point,
    PointMap,
    compose,
    distance,
    fiber_points,
    identity_map,
    pullback,
    uniform_grid_1d,
    uniform_grid_2d,
)
from .kappametric import (
    KappaAxiomReport,
    KappaCandidate,
    check_kappa_axioms,
    constant_candidate,
    distance_candidate,
    squared_distance_candidate,
)
from .measures import (
    AxiomCheckReport,
    IdempotentMeasure,
    check_axioms,
    combine,
    make_measure,
    max_weight_gap,
    min_plus_functional,
    sum_functional,
)
from .suites import SUITES, SuiteReport
from .weaktop import WeakNeighborhood, approximate_on_dense

__version__ = "0.1.0"

__all__ = [
    "AxiomCheckReport",
    "CoefficientError",
    "DenseSetTooCoarseError",
    "EmptyFiberError",
    "FiberBoundReport",
    "FunctionTable",
    "GroundSpace",
    "IdempotentMeasure",
    "KappaAxiomReport",
    "KappaCandidate",
    "LiftImpossibleError",
    "MaxPlusError",
    "MetricUnavailableError",
    "NoMassError",
    "NormAxiomError",
    "Point",
    "PointMap",
    "SUITES",
    "SpaceMismatchError",
    "SuiteReport",
    "UnknownPointError",
    "ValidationError",
    "WeakNeighborhood",
    "approximate_on_dense",
    "check_axioms",
    "check_fiber_bounds",
    "check_kappa_axioms",
    "combine",
    "compose",
    "constant_candidate",
    "distance",
    "distance_candidate",
    "fiber_inf",
    "fiber_points",
    "fiber_sup",
    "identity_map",
    "lift_toward",
    "make_measure",
    "max_weight_gap",
    "min_plus_functional",
    "preimage_contains",
    "pullback",
    "pushforward",
    "sample_preimage",
    "squared_distance_candidate",
    "sum_functional",
    "support_displacement",
    "support_image_check",
    "uniform_grid_1d",
    "uniform_grid_2d",
]
