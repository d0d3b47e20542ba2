"""Command-line front end.

JSON goes in through files, reports come out as JSON on stdout with a
human summary on stderr. Exit codes: 0 all good, 1 a legitimate negative
outcome (failing suite, false membership check, too-coarse dense set),
2 malformed input.

Ground spaces may be supplied explicitly with ``--space FILE`` (required
whenever an operation needs coordinates); otherwise a coordinate-less
space is inferred per space id from the sorted union of point ids the
input files mention.

A file command reads the ``--space`` files first, then its other input
files in argument order, and drops each decoded JSON tree before it
decodes the next, keeping only the space or the reader's columns. Faults
are still reported by stage: an input file that cannot be read or is not
JSON, then a ``--space`` fault, then a reader fault, then inference and
build (``_load`` has the details).

Every command is a fresh process, started by ``maxplus.__main__.run``,
which freezes what the process keeps before it exits; ``main`` never
freezes, because in-process callers keep their own collector. So the
module imports at the top only what reading inputs and writing results
needs (``errors``, ``ground``, ``jsonio``, ``measures``). A handler
imports the rest of what it runs (``functor``, ``weaktop`` or
``suites``) when it runs, and the ``check`` parser lists the suite names
as a literal, so a file command never loads the suites.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time

from .errors import DenseSetTooCoarseError, MetricUnavailableError, ValidationError
from .ground import GroundSpace
from .jsonio import (
    load_json_file,
    measure_to_json,
    merged_refs,
    read_dense,
    read_function,
    read_map,
    read_measure,
    read_tests,
    space_from_dict,
)
from .measures import IdempotentMeasure, combine

DEFAULT_TOL = 1e-9


def _emit(obj) -> None:
    if isinstance(obj, IdempotentMeasure):
        print(measure_to_json(obj))
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _resolve_tol(value: float | None) -> float:
    """The ``--tol`` value, else ``MAXPLUS_TOL``, else the default; finite and not negative."""
    source, raw = "--tol", value
    if value is None:
        raw = os.environ.get("MAXPLUS_TOL")
        if raw is None:
            return DEFAULT_TOL
        source = "MAXPLUS_TOL"
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not math.isfinite(tol):
        raise ValidationError(f"{source} is not a finite number: {raw!r}")
    if tol < 0.0:
        raise ValidationError(f"{source} must not be negative: {raw!r}")
    return tol


def _load(args, **readers) -> list:
    """Read each named input file with its ``jsonio`` reader and build it on its spaces.

    The ``--space`` files are read first, then the named files in
    argument order. Each file is decoded, read (by ``space_from_dict`` or
    its reader) and dropped before the next is decoded, so while no
    fault is held only one decoded tree is alive at a time; what is kept
    is the space or the columns the reader's ``build`` needs.

    Faults are reported in a fixed order of stages, not in read order:
    the first named file that cannot be opened or is not JSON, then the
    first ``--space`` fault, then the first reader fault in argument
    order, then inference and build faults. The first ``--space`` or
    reader ``ValidationError`` is held until every named file has been
    decoded; once one is held, the files left are only decoded.

    A space without a ``--space`` file is inferred as the sorted union of
    the point ids all the files reference under its id.
    """
    held = None
    spaces: dict[str, GroundSpace] = {}
    try:
        for path in args.space or []:
            space = space_from_dict(load_json_file(path))
            if space.id in spaces:
                raise ValidationError(f"space {space.id!r} supplied more than once")
            spaces[space.id] = space
    except ValidationError as exc:
        held = exc
    reads = []
    for name, read in readers.items():
        tree = load_json_file(getattr(args, name))  # unreadable or not JSON: raised at once, before a held fault
        if held is None:
            try:
                reads.append(read(tree))
            except ValidationError as exc:
                held = exc
        del tree
    if held is not None:
        raise held
    for sid, pts in merged_refs(reads).items():
        if sid not in spaces:
            if not pts:
                raise ValidationError(f"cannot infer space {sid!r}: no points referenced; supply --space")
            # not sorted(set(pts)): first-seen order keeps runs for timsort (200k ids: 21 ms against 50)
            spaces[sid] = GroundSpace(sid, sorted(dict.fromkeys(pts)))
    return [read.build(*map(spaces.__getitem__, read.space_ids)) for read in reads]


# --- handlers ---------------------------------------------------------------

def cmd_integrate(args) -> int:
    mu, phi = _load(args, measure=read_measure, function=read_function)
    value = mu.integrate(phi)
    _emit({"integral": value})
    _info(f"integral of the table against the measure: {value}")
    return 0


def cmd_pushforward(args) -> int:
    from .functor import pushforward

    f, mu = _load(args, map=read_map, measure=read_measure)
    result = pushforward(f, mu)
    _emit(result)
    _info(f"pushforward onto {result.space_id!r}: {len(result)} atoms")
    return 0


def cmd_combine(args) -> int:
    mu1, mu2 = _load(args, m1=read_measure, m2=read_measure)
    result = combine(args.alpha, mu1, args.beta, mu2)
    _emit(result)
    _info(f"combination on {result.space_id!r}: {len(result)} atoms")
    return 0


def cmd_approx(args) -> int:
    from .weaktop import WeakNeighborhood, approximate_on_dense

    mu, (dense_sid, dense_pts), tests = _load(args, measure=read_measure, dense=read_dense, tests=read_tests)
    if dense_sid != mu.space_id:
        raise ValidationError(
            f"dense subset addresses space {dense_sid!r} but the measure"
            f" lives on {mu.space_id!r}"
        )
    nu = approximate_on_dense(mu, dense_pts, tests, args.eps)
    _emit(nu)
    worst = max(WeakNeighborhood(mu, tuple(tests), args.eps).discrepancies(nu))
    _info(f"approximation landed inside epsilon {args.eps}: worst discrepancy {worst}")
    return 0


def cmd_lift(args) -> int:
    from .functor import lift_toward, support_displacement

    f, base, target = _load(args, map=read_map, base=read_measure, target=read_measure)
    lifted = lift_toward(f, base, target)
    _emit(lifted)
    try:
        moved = support_displacement(base, lifted)
        _info(f"lift onto {lifted.space_id!r}: {len(lifted)} atoms, displacement {moved}")
    except MetricUnavailableError:
        _info(f"lift onto {lifted.space_id!r}: {len(lifted)} atoms (no metric: earliest representatives)")
    return 0


def cmd_preimage_check(args) -> int:
    from .functor import preimage_contains

    f, nu, mu = _load(args, map=read_map, nu=read_measure, mu=read_measure)
    ok = preimage_contains(f, nu, mu, args.tol)
    _emit({"contains": ok, "tolerance": args.tol})
    _info(
        f"measure {'is' if ok else 'is NOT'} in the pushforward preimage"
        f" (tolerance {args.tol})"
    )
    return 0 if ok else 1


def cmd_check(args) -> int:
    from .suites import BOUNDED_SUITES, SUITES

    options = {"seed": args.seed}
    if args.trials is not None:
        if args.trials < 1:
            raise ValidationError(f"trials must be at least 1, got {args.trials}")
        options["trials"] = args.trials
    if args.seed < 0:
        raise ValidationError(f"--seed must not be negative, got {args.seed}")
    if args.suite in BOUNDED_SUITES:
        options["tol"] = args.tol
    started = time.perf_counter()
    report = SUITES[args.suite](**options)
    seconds = time.perf_counter() - started
    _emit(report.to_json_dict())
    _info(report.human_summary(seconds))
    return 0 if report.passed else 1


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxplus",
        description=(
            "Finite-support idempotent probability measures over the"
            " max-plus semiring: integration, pushforward, convex"
            " combination, dense approximation, lifting, and property suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_option(p):
        p.add_argument(
            "--space",
            action="append",
            metavar="FILE",
            help="ground-space JSON (repeatable); omitted spaces are inferred without coordinates",
        )

    p = sub.add_parser("integrate", help="Maslov integral of a function table against a measure")
    p.add_argument("--measure", required=True, metavar="FILE")
    p.add_argument("--function", required=True, metavar="FILE")
    add_space_option(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("pushforward", help="transport a measure along a point map")
    p.add_argument("--map", required=True, metavar="FILE")
    p.add_argument("--measure", required=True, metavar="FILE")
    add_space_option(p)
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("combine", help="max-plus convex combination of two measures")
    p.add_argument("--alpha", required=True, type=float, help="first coefficient (-inf allowed)")
    p.add_argument("--beta", required=True, type=float, help="second coefficient (-inf allowed)")
    p.add_argument("--m1", required=True, metavar="FILE")
    p.add_argument("--m2", required=True, metavar="FILE")
    add_space_option(p)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("approx", help="approximate a measure on a designated dense subset")
    p.add_argument("--measure", required=True, metavar="FILE")
    p.add_argument("--dense", required=True, metavar="FILE")
    p.add_argument("--tests", required=True, metavar="FILE")
    p.add_argument("--eps", required=True, type=float)
    add_space_option(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("lift", help="lift a target measure through a map, staying near a base measure")
    p.add_argument("--map", required=True, metavar="FILE")
    p.add_argument("--base", required=True, metavar="FILE")
    p.add_argument("--target", required=True, metavar="FILE")
    add_space_option(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("preimage-check", help="test membership in a pushforward preimage")
    p.add_argument("--map", required=True, metavar="FILE")
    p.add_argument("--nu", required=True, metavar="FILE")
    p.add_argument("--mu", required=True, metavar="FILE")
    p.add_argument("--tol", type=float, default=None, help="comparison tolerance (default: MAXPLUS_TOL or 1e-9)")
    add_space_option(p)
    p.set_defaults(func=cmd_preimage_check)

    p = sub.add_parser("check", help="run a seeded property suite")
    p.add_argument("suite", choices=("axioms", "convexity", "density", "functor", "kappa", "lemmas", "openmap"))
    p.add_argument("--trials", type=int, default=None, help="trial count (default: per-suite)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None, help="tolerance of homogeneity (axioms) and K3"
                   " (kappa); every other check is exact (default: MAXPLUS_TOL or 1e-9)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    """Run one command; a file command runs with the cyclic garbage collector paused.

    The decoded inputs are acyclic trees of dicts, lists, strings and
    floats, which reference counting frees, so the collector would only
    rescan them as they grow. ``check`` allocates no such tree and runs
    with the collector as the caller left it.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "tol"):
        try:
            args.tol = _resolve_tol(args.tol)
        except ValidationError as exc:
            _info(f"error: {exc}")
            return 2
    paused = args.func is not cmd_check and gc.isenabled()
    if paused:
        gc.disable()
    try:
        return args.func(args)
    except ValidationError as exc:
        _info(f"error: {exc}")
        return 2
    except DenseSetTooCoarseError as exc:
        _info(f"error: {exc}")
        return 1
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":  # not a launcher: a script would otherwise get silent success
    build_parser().error("maxplus.cli is not a launcher; run the CLI as `python -m maxplus`")
