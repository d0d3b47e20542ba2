"""The public surface: every exported name has a caller in the package or a place in the README.

The package resolves each export from its home module on first use; the
tests below check that what it hands out is the home module's object.
"""

import ast
import re
from importlib import import_module
from pathlib import Path

import pytest

import maxplus

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maxplus"

EXPORTS = [
    "AxiomCheckReport", "CoefficientError", "DenseSetTooCoarseError", "EmptyFiberError",
    "FiberBoundReport", "FunctionTable", "GroundSpace", "IdempotentMeasure", "KappaAxiomReport",
    "KappaCandidate", "LiftImpossibleError", "MaxPlusError", "MetricUnavailableError",
    "NoMassError", "NormAxiomError", "Point", "PointMap", "SUITES", "SpaceMismatchError",
    "SuiteReport", "UnknownPointError", "ValidationError", "WeakNeighborhood",
    "approximate_on_dense", "check_axioms", "check_fiber_bounds", "check_kappa_axioms",
    "combine", "compose", "constant_candidate", "distance",
    "distance_candidate", "fiber_inf", "fiber_points", "fiber_sup", "identity_map",
    "lift_toward", "make_measure", "max_weight_gap", "min_plus_functional",
    "preimage_contains", "pullback", "pushforward", "sample_preimage",
    "squared_distance_candidate", "sum_functional", "support_displacement",
    "support_image_check", "uniform_grid_1d", "uniform_grid_2d",
]


def _used_in_package() -> set[str]:
    """Names read in the package's code (not docstrings), outside ``__init__`` and their own definitions."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            names.discard(getattr(stmt, "name", None))
            used |= names
    return used


def _named_in_readme() -> set[str]:
    """The identifiers inside the README's code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", text))))


def test_every_export_has_a_caller():
    assert sorted(maxplus.__all__) == EXPORTS
    known = _used_in_package() | _named_in_readme()
    assert [name for name in EXPORTS if name not in known] == []


def test_exports_resolve_to_their_home_objects():
    for name in EXPORTS:
        home = import_module(f"maxplus.{maxplus._HOME[name]}")
        assert getattr(maxplus, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from maxplus import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_dir_lists_every_export():
    assert set(EXPORTS) <= set(dir(maxplus))


def test_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'maxplus' has no attribute 'nope'$"):
        maxplus.nope


def test_names_and_submodules_import_together():
    from maxplus import ValidationError, cli

    assert ValidationError is import_module("maxplus.errors").ValidationError
    assert cli is import_module("maxplus.cli")
