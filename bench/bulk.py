"""Inputs, numpy references and verifiers for the cli-bulk workload.

Every input is drawn from one seed, written as JSON files the CLI reads,
and paired with a reference computed independently with numpy from the
same arrays. The CLI output must match the reference bit for bit (or,
for ``lift``, satisfy the two properties that define a correct lift).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one cli-bulk round."""

    bulk: int = 100_000          # atoms of the integrate / pushforward / combine measures
    push_target: int = 1_000     # points of the pushforward target space
    combine_second: int = 80_000  # atoms of the second combine operand
    approx_atoms: int = 2_000
    approx_grid: int = 1_000
    approx_tests: int = 3
    lift_side: int = 300         # source grid is lift_side x lift_side
    lift_base: int = 64
    lift_target: int = 100


FULL = Sizes()

# cli-bulk items in the order one round runs them
ITEMS = ("cold", "integrate", "pushforward", "combine", "approx", "lift")

APPROX_EPS = 0.01  # 1-Lipschitz tests move by at most half a grid pitch, far below this


def _dump(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, separators=(",", ":")))  # one-shot dumps uses the C encoder


def _ids(prefix: str, n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = -rng.uniform(0.0, 10.0, n)
    w[int(rng.integers(0, n))] = 0.0
    return w


def _measure(space: str, ids, weights) -> dict:
    return {
        "space": space,
        "atoms": [{"point": p, "weight": w} for p, w in zip(ids, weights.tolist())],
    }


def _atoms(ids, dense: np.ndarray) -> list[dict]:
    """Atoms of a dense weight vector, -inf meaning off the support, in index order."""
    keep = np.flatnonzero(dense > -np.inf)
    return [{"point": ids[i], "weight": w} for i, w in zip(keep.tolist(), dense[keep].tolist())]


@dataclass
class Bulk:
    """One generated cli-bulk input set: CLI argument lists and references."""

    argv: dict
    expected: dict


def make(seed: int, outdir: str, sizes: Sizes = FULL) -> Bulk:
    """Write the inputs of every item under ``outdir`` and compute references."""
    rng = np.random.default_rng([seed, 0xB17])
    path = lambda name: os.path.join(outdir, name)  # noqa: E731
    argv: dict = {}
    expected: dict = {}

    # cold start: a 3-point integral
    small = ["c0", "c1", "c2"]
    w3 = _weights(rng, 3)
    phi3 = rng.uniform(-10.0, 10.0, 3)
    _dump(path("cold_m.json"), _measure("C", small, w3))
    _dump(path("cold_f.json"), {"space": "C", "values": dict(zip(small, phi3.tolist()))})
    argv["cold"] = ["integrate", "--measure", path("cold_m.json"), "--function", path("cold_f.json")]
    expected["cold"] = {"integral": float(np.max(w3 + phi3))}

    # integrate: one call on a full-support measure
    n = sizes.bulk
    xs = _ids("x", n)
    w = _weights(rng, n)
    phi = rng.uniform(-10.0, 10.0, n)
    _dump(path("mu.json"), _measure("X", xs, w))
    _dump(path("phi.json"), {"space": "X", "values": dict(zip(xs, phi.tolist()))})
    argv["integrate"] = ["integrate", "--measure", path("mu.json"), "--function", path("phi.json")]
    expected["integrate"] = {"integral": float(np.max(w + phi))}

    # pushforward: per-fiber max onto a smaller space (only image points are referenced)
    ys = _ids("y", sizes.push_target)
    assign = rng.integers(0, sizes.push_target, n)
    _dump(path("map.json"), {"from": "X", "to": "Y", "assign": {x: ys[j] for x, j in zip(xs, assign.tolist())}})
    argv["pushforward"] = ["pushforward", "--map", path("map.json"), "--measure", path("mu.json")]
    pushed = np.full(sizes.push_target, -np.inf)
    np.maximum.at(pushed, assign, w)
    expected["pushforward"] = {"space": "Y", "atoms": _atoms(ys, pushed)}

    # combine: the first operand is mu, the second covers part of X
    k = sizes.combine_second
    idx2 = np.sort(rng.choice(n, size=k, replace=False))
    w2 = _weights(rng, k)
    alpha = -float(rng.uniform(0.5, 3.0))
    beta = 0.0
    _dump(path("m2.json"), _measure("X", [xs[i] for i in idx2.tolist()], w2))
    argv["combine"] = [
        "combine", f"--alpha={alpha!r}", f"--beta={beta!r}",
        "--m1", path("mu.json"), "--m2", path("m2.json"),
    ]
    second = np.full(n, -np.inf)
    second[idx2] = w2
    expected["combine"] = {"space": "X", "atoms": _atoms(xs, np.maximum(alpha + w, beta + second))}

    # approx: off-grid atoms on [0, 1] moved to the nearest of an evenly spaced grid
    g = sizes.approx_grid
    grid_ids = _ids("g", g)
    pitch = 1.0 / (g - 1)
    grid = np.array([i * pitch for i in range(g)])
    atom_ids = _ids("a", sizes.approx_atoms)
    atom_c = rng.uniform(0.0, 1.0, sizes.approx_atoms)
    taken = set(grid.tolist())
    for i, c in enumerate(atom_c.tolist()):  # a space may not repeat coordinates
        while c in taken:
            c = (c + 1.3e-7) % 1.0
        taken.add(c)
        atom_c[i] = c
    aw = _weights(rng, sizes.approx_atoms)
    every = grid_ids + atom_ids
    coords = np.concatenate([grid, atom_c])
    _dump(path("p_space.json"), {
        "id": "P", "points": [{"id": p, "coords": [c]} for p, c in zip(every, coords.tolist())],
    })
    _dump(path("p_mu.json"), _measure("P", atom_ids, aw))
    _dump(path("p_dense.json"), {"space": "P", "points": grid_ids})
    slopes = rng.uniform(-1.0, 1.0, sizes.approx_tests)
    offsets = rng.uniform(-5.0, 5.0, sizes.approx_tests)
    _dump(path("p_tests.json"), [
        {"space": "P", "values": dict(zip(every, (a * coords + b).tolist()))}
        for a, b in zip(slopes, offsets)
    ])
    argv["approx"] = [
        "approx", "--measure", path("p_mu.json"), "--dense", path("p_dense.json"),
        "--tests", path("p_tests.json"), "--eps", repr(APPROX_EPS), "--space", path("p_space.json"),
    ]
    nearest = np.argmin(np.abs(grid[None, :] - atom_c[:, None]), axis=1)
    merged = np.full(g, -np.inf)
    np.maximum.at(merged, nearest, aw)
    expected["approx"] = {"space": "P", "atoms": _atoms(grid_ids, merged)}

    # lift: along the first-coordinate projection of a square grid onto a line
    s = sizes.lift_side
    width = len(str(s - 1))
    line_ids = _ids("l", s)
    lpitch = 1.0 / (s - 1)
    axis = [i * lpitch for i in range(s)]
    q_ids = [f"q{i:0{width}d}_{j:0{width}d}" for i in range(s) for j in range(s)]
    _dump(path("q_space.json"), {
        "id": "Q",
        "points": [{"id": q, "coords": [axis[i], axis[j]]}
                   for q, (i, j) in zip(q_ids, ((i, j) for i in range(s) for j in range(s)))],
    })
    _dump(path("q_map.json"), {"from": "Q", "to": "L", "assign": {
        q: line_ids[qi // s] for qi, q in enumerate(q_ids)
    }})
    base_idx = np.sort(rng.choice(s * s, size=sizes.lift_base, replace=False))
    target_idx = np.sort(rng.choice(s, size=sizes.lift_target, replace=False))
    tw = _weights(rng, sizes.lift_target)
    _dump(path("q_base.json"), _measure("Q", [q_ids[i] for i in base_idx.tolist()], _weights(rng, sizes.lift_base)))
    _dump(path("q_target.json"), _measure("L", [line_ids[i] for i in target_idx.tolist()], tw))
    argv["lift"] = [
        "lift", "--map", path("q_map.json"), "--base", path("q_base.json"),
        "--target", path("q_target.json"), "--space", path("q_space.json"),
    ]
    ax = np.array(axis)
    anchors = np.stack([ax[base_idx // s], ax[base_idx % s]], axis=1)
    # distance of every point of each target fiber to the base support
    fx = ax[target_idx][:, None, None]
    fy = ax[None, :, None]
    dist = np.sqrt((fx - anchors[None, None, :, 0]) ** 2 + (fy - anchors[None, None, :, 1]) ** 2).min(axis=2)
    expected["lift"] = {
        "side": s,
        "q_ids": q_ids,
        "line_ids": line_ids,
        "target": dict(zip((line_ids[i] for i in target_idx.tolist()), tw.tolist())),
        "fiber_dist": {line_ids[i]: row for i, row in zip(target_idx.tolist(), dist)},
    }
    return Bulk(argv, expected)


# distances are recomputed in numpy, which may round differently from math.dist
LIFT_DIST_TOL = 1e-12


def _check_lift(out: dict, ref: dict) -> bool:
    s = ref["side"]
    index = {q: i for i, q in enumerate(ref["q_ids"])}
    atoms = out.get("atoms")
    if out.get("space") != "Q" or not isinstance(atoms, list):
        return False
    positions = [index.get(a.get("point"), -1) for a in atoms]
    if -1 in positions or positions != sorted(positions):
        return False
    pushed: dict = {}
    for a, qi in zip(atoms, positions):
        y = ref["line_ids"][qi // s]
        w = a.get("weight")
        if not isinstance(w, float):
            return False
        pushed[y] = max(pushed.get(y, -np.inf), w)
        row = ref["fiber_dist"].get(y)
        if row is None or row[qi % s] > row.min() + LIFT_DIST_TOL:
            return False
    return pushed == ref["target"]


def verify(item: str, stdout: str, expected: dict) -> bool:
    """Whether the CLI output of one item is exactly right."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return False
    if not isinstance(out, dict):
        return False
    if item == "lift":
        return _check_lift(out, expected["lift"])
    return out == expected[item]
