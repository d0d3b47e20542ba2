"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions and methods of every
``maxplus`` layer, plus each class's ``__init__``, ``__call__`` and the
``_trusted`` constructors that build most tables and measures, in every
``maxplus`` namespace that holds them (module globals, re-exports in the
package, and dispatch dicts such as ``SUITES``). Hooks read counts
from the positional arguments the library passes. Each wrapped call
appends one span (name, start, end, parent) to in-memory arrays; the
run id is stored once per tracer. ``uninstall`` puts every original
back. The library itself is not edited: all spans come from here.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans. The wrapper's own bookkeeping falls into
the caller's self time, which is why the traced run reports its
overhead against an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "semiring", "ground", "measures", "functor", "weaktop",
    "kappametric", "rng", "suites", "jsonio", "cli",
)

# non-public class attributes that still mark a layer boundary
_BOUNDARY_DUNDERS = ("__init__", "__call__", "_trusted")

RHO = "kappametric.rho"


def _targets() -> dict:
    """id(original) -> (original, span name) for every function to wrap."""
    found: dict = {}
    for layer in LAYERS:
        module = importlib.import_module(f"maxplus.{layer}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                found[id(obj)] = (obj, f"{layer}.{obj.__qualname__}")
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") and attr not in _BOUNDARY_DUNDERS:
                        continue
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(fn):
                        found[id(fn)] = (fn, f"{layer}.{obj.__qualname__}.{fn.__name__}")
    return found


def _namespaces():
    return [m for n, m in sorted(sys.modules.items()) if n == "maxplus" or n.startswith("maxplus.")]


class Tracer:
    """Wraps the library, records spans and counts, and summarizes them."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list = []
        self._hooks = {
            "ground.GroundSpace.__init__": self._count_space,
            "measures.IdempotentMeasure.integrate": self._count_integrate,
            "functor.pushforward": self._count_pushforward,
            "functor.lift_toward": self._count_lift,
            "weaktop.approximate_on_dense": self._count_approx,
            "jsonio.load_json_file": self._count_load,
            "kappametric.distance_candidate": self._wrap_rho,
            "kappametric.constant_candidate": self._wrap_rho,
            "kappametric.squared_distance_candidate": self._wrap_rho,
        }

    # --- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        """A span-recording stand-in for ``fn``."""
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        if hook is None and name.startswith("suites.run_"):
            hook = self._count_trials
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        if hook is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = len(names)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()

            return traced

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            result = error = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                hook(args, result, error)

        return hooked

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = _targets()
        wrapped: dict = {}

        def replacement(obj):
            hit = targets.get(id(obj))
            if hit is None or hit[0] is not obj:
                return None
            if id(obj) not in wrapped:
                wrapped[id(obj)] = self.wrap(obj, hit[1])
            return wrapped[id(obj)]

        for module in _namespaces():
            for attr, value in list(vars(module).items()):
                new = replacement(value)
                if new is not None:
                    self._patches.append((setattr, module, attr, value))
                    setattr(module, attr, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = replacement(item)
                        if new is not None:
                            self._patches.append((dict.__setitem__, value, key, item))
                            value[key] = new
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for cattr, raw in list(vars(value).items()):
                        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                        new = replacement(raw.__func__ if kind else raw)
                        if new is not None:
                            self._patches.append((setattr, value, cattr, raw))
                            setattr(value, cattr, kind(new) if kind else new)

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._patches):
            setter(owner, key, original)
        self._patches.clear()

    # --- counts taken from call inputs ------------------------------------

    def _count_space(self, args, result, error):
        if error is None:
            self.counts["ground.space_points"] += len(args[0]._points)

    def _count_integrate(self, args, result, error):
        self.counts["measures.integrate.atoms"] += len(args[0]._weights)

    def _count_pushforward(self, args, result, error):
        self.counts["functor.pushforward.atoms"] += len(args[1]._weights)

    def _count_lift(self, args, result, error):
        f, base, target = args
        if f.source.has_coords:
            pairs = sum(len(f._fibers.get(y, ())) for y in target._weights)
            self.counts["functor.lift.dist_evals"] += pairs * len(base._weights)

    def _count_approx(self, args, result, error):
        mu, dense = args[0], args[1]
        self.counts["weaktop.dist_evals"] += len(mu._weights) * len(set(dense))
        if error is not None and type(error).__name__ == "DenseSetTooCoarseError":
            self.counts["weaktop.approx.rejected"] += 1

    def _count_load(self, args, result, error):
        if error is None:
            self.counts["jsonio.bytes_in"] += os.path.getsize(args[0])

    def _count_trials(self, args, result, error):
        if error is None:
            self.counts["suites.trials"] += result.trials

    def _wrap_rho(self, args, result, error):
        # candidates are frozen dataclasses built per space: wrap their rho in place
        if error is None:
            object.__setattr__(result, "rho", self.wrap(result.rho, RHO))

    # --- summaries --------------------------------------------------------

    def by_name(self) -> dict:
        """span name -> (calls, self seconds, total seconds)."""
        import numpy as np

        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        totals = np.bincount(name, weights=dur, minlength=k)
        return {
            nm: (int(calls[i]), float(selfs[i]), float(totals[i]))
            for i, nm in enumerate(self.names)
            if calls[i]
        }

    def layer_metrics(self) -> dict:
        """The per-layer metrics this tracer can give (see BENCHMARK.json)."""
        stats = self.by_name()
        c = self.counts

        def calls(*names):
            return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

        def self_s(match):
            return float(sum(s for n, (_, s, _) in stats.items() if match(n)))

        def layer(prefix):
            return lambda n: n.split(".", 1)[0] == prefix

        def encode(n):
            return n.startswith("jsonio.") and n.endswith("_to_dict")

        approx = calls("weaktop.approximate_on_dense")
        rejected = c["weaktop.approx.rejected"]
        return {
            "semiring.values": calls("semiring.MaxPlusValue.__init__"),
            "semiring.self_s": self_s(layer("semiring")),
            "ground.spaces": calls("ground.GroundSpace.__init__"),
            "ground.space_points": c["ground.space_points"],
            "ground.maps": calls("ground.PointMap.__init__"),
            "ground.tables": calls("ground.FunctionTable.__init__", "ground.FunctionTable._trusted"),
            "ground.self_s": self_s(layer("ground")),
            "measures.integrate.calls": calls("measures.IdempotentMeasure.integrate"),
            "measures.integrate.atoms": c["measures.integrate.atoms"],
            "measures.integrate.self_s": self_s(lambda n: n == "measures.IdempotentMeasure.integrate"),
            "measures.construct.calls": calls(
                "measures.IdempotentMeasure.__init__", "measures.IdempotentMeasure._trusted"
            ),
            "measures.combine.calls": calls("measures.combine"),
            "measures.self_s": self_s(layer("measures")),
            "functor.pushforward.calls": calls("functor.pushforward"),
            "functor.pushforward.atoms": c["functor.pushforward.atoms"],
            "functor.lift.dist_evals": c["functor.lift.dist_evals"],
            "functor.self_s": self_s(layer("functor")),
            "weaktop.approx.calls": approx,
            "weaktop.approx.rejected": rejected,
            "weaktop.accept_ratio": (approx - rejected) / approx if approx else 0.0,
            "weaktop.dist_evals": c["weaktop.dist_evals"],
            "weaktop.self_s": self_s(layer("weaktop")),
            "kappametric.checks": calls("kappametric.check_kappa_axioms"),
            "kappametric.rho_calls": calls(RHO),
            "kappametric.self_s": self_s(layer("kappametric")),
            "rng.generators": calls("rng.trial_rng"),
            "rng.self_s": self_s(layer("rng")),
            "suites.trials": c["suites.trials"],
            "suites.self_s": self_s(layer("suites")),
            "jsonio.bytes_in": c["jsonio.bytes_in"],
            "jsonio.load_s": self_s(lambda n: n == "jsonio.load_json_file"),
            "jsonio.decode_s": self_s(
                lambda n: layer("jsonio")(n) and n != "jsonio.load_json_file" and not encode(n)
            ),
            "jsonio.encode_s": self_s(encode),
            "jsonio.self_s": self_s(layer("jsonio")),
            "cli.self_s": self_s(layer("cli")),
        }

    def write(self, path: str) -> None:
        """Write the spans out as a NumPy archive (names indexed by ``name``)."""
        import numpy as np

        np.savez(
            path,
            run_id=np.int64(self.run_id),
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
