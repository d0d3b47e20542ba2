"""Deterministic random streams for the property suites.

Every trial gets its own generator seeded by (master seed, trial index),
so trials are reproducible individually and insensitive to reordering.
"""

from __future__ import annotations

import numpy as np


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))


def rand_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def rand_int(rng: np.random.Generator, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] inclusive."""
    return int(rng.integers(lo, hi + 1))


def choose(rng: np.random.Generator, items: list):
    """Uniform choice from a list (index-based: never hands numpy the items)."""
    return items[int(rng.integers(0, len(items)))]


def subset(rng: np.random.Generator, items: list, k: int) -> list:
    """k distinct items, chosen without replacement, in original order."""
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[i] for i in sorted(idx.tolist())]
