"""Report-only micro-timings of single library calls at 10, 1e3 and 1e5 points.

Usage (from the repository root):

    python3 bench/micro.py [--seed N]

Prints one JSON object: the environment record and, per operation and
size, the median seconds per call (see ``per_call``). The nearest-point
paths cost |support| x |candidates| distance evaluations, so their
second factor shrinks with n to keep each call near 1e6 evaluations
(well under a second); ``evals`` gives the product. These numbers are
diagnostics and carry no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import SRC, environment

SIZES = (10, 1_000, 100_000)
EVAL_BUDGET = 1_000_000


def per_call(fn) -> tuple[float, int]:
    """Median seconds per call and the number of calls timed.

    Calls run in batches of at least a millisecond, at least five
    batches and at least 0.2 s in all.
    """
    start = time.perf_counter()
    fn()
    batch = max(1, int(1e-3 / max(time.perf_counter() - start, 1e-9)))
    per, spent = [], 0.0
    while len(per) < 5 or spent < 0.2:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - start
        per.append(elapsed / batch)
        spent += elapsed
    return statistics.median(per), batch * len(per)


def cases(n: int, seed: int):
    import numpy as np

    from maxplus import (
        FunctionTable, GroundSpace, IdempotentMeasure, PointMap,
        approximate_on_dense, combine, lift_toward, pushforward,
    )

    rng = np.random.default_rng([seed, n])
    ids = [f"x{i}" for i in range(n)]
    X = GroundSpace("X", ids)
    w = -rng.uniform(0.0, 10.0, n)
    w[0] = 0.0
    mu = IdempotentMeasure(X, dict(zip(ids, w.tolist())))
    w2 = -rng.uniform(0.0, 10.0, n)
    w2[-1] = 0.0
    nu = IdempotentMeasure(X, dict(zip(ids, w2.tolist())))
    values = dict(zip(ids, rng.uniform(-10.0, 10.0, n).tolist()))
    phi = FunctionTable(X, values)
    m = max(1, n // 10)
    Y = GroundSpace("Y", [f"y{j}" for j in range(m)])
    assign = {x: f"y{j}" for x, j in zip(ids, rng.integers(0, m, n).tolist())}
    f = PointMap(X, Y, assign)

    # nearest-point paths on [0, 1]: n atoms, k candidates each
    k = max(1, min(n, EVAL_BUDGET // n))
    atom_c = rng.uniform(0.0, 1.0, n).tolist()
    grid = [(i + 0.5) / k for i in range(k)]  # never equal to an atom coordinate drawn below
    P = GroundSpace("P", [(f"g{i}", (c,)) for i, c in enumerate(grid)]
                    + [(f"a{i}", (c + 2.0,)) for i, c in enumerate(atom_c)])
    atoms = IdempotentMeasure(P, {f"a{i}": (0.0 if i == 0 else -1.0) for i in range(n)})
    dense = [f"g{i}" for i in range(k)]
    tests = [FunctionTable(P, {p.id: 0.0 for p in P.points})]

    # lift along a projection whose n source points spread over n // 10 fibers
    L = GroundSpace("L", [(f"s{i}", (c,)) for i, c in enumerate(atom_c)])
    T = GroundSpace("T", [f"t{j}" for j in range(m)])
    proj = PointMap(L, T, {f"s{i}": f"t{min(m - 1, int(c * m))}" for i, c in enumerate(atom_c)})
    base_ids = [f"s{i}" for i in range(k)]
    base = IdempotentMeasure(L, {s: (0.0 if i == 0 else -1.0) for i, s in enumerate(base_ids)})
    image = sorted(proj.image, key=T.index)
    target = IdempotentMeasure(T, {t: (0.0 if j == 0 else -0.5) for j, t in enumerate(image)})

    return {
        "integrate": (lambda: mu.integrate(phi), n),
        "pushforward": (lambda: pushforward(f, mu), n),
        "combine": (lambda: combine(-1.0, mu, 0.0, nu), 2 * n),
        "table": (lambda: FunctionTable(X, values), n),
        "map": (lambda: PointMap(X, Y, assign), n),
        "approximate_on_dense": (lambda: approximate_on_dense(atoms, dense, tests, 10.0), n * k),
        "lift_toward": (lambda: lift_toward(proj, base, target), n * k),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    rows = []
    for n in SIZES:
        for op, (fn, evals) in cases(n, args.seed).items():
            seconds, reps = per_call(fn)
            rows.append({"op": op, "n": n, "evals": evals, "seconds": seconds, "calls": reps})
    print(json.dumps({"env": environment(), "micro": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
