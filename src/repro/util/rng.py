"""Seeded randomness plumbing.

Every stochastic choice in the library (example partitioning, seed-example
selection, dataset synthesis, fold assignment) draws from a
:class:`random.Random` that :func:`make_rng` seeds from a single
user-provided seed and a label path.  Identical seeds therefore reproduce
identical theories, virtual times and message byte counts — a property
the test suite asserts.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect
from itertools import accumulate


def derive_seed(base: int, *labels: object) -> int:
    """Derive a child seed from ``base`` and a label path.

    Uses BLAKE2b over the rendered labels so that child streams are
    statistically independent and insensitive to call ordering.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base)).encode())
    for label in labels:
        h.update(b"/")
        h.update(repr(label).encode())
    return int.from_bytes(h.digest(), "big")


def make_rng(base: int, *labels: object) -> random.Random:
    """Create a :class:`random.Random` seeded via :func:`derive_seed`."""
    return random.Random(derive_seed(base, *labels))


def weighted_draw(values: tuple, weights: tuple):
    """``draw(rng)`` is ``rng.choices(values, weights=weights, k=1)[0]``
    (the same ``rng.random()`` call and float arithmetic, so the same value)
    with the cumulative weights summed once rather than on every call."""
    cum = list(accumulate(weights))
    total, hi = (cum[-1] if cum else 0) + 0.0, len(values) - 1
    if len(cum) != len(values) or not 0.0 < total < float("inf"):
        raise ValueError(f"weighted_draw needs one weight per value and a positive sum: {weights}")
    return lambda rng: values[bisect(cum, rng.random() * total, 0, hi)]
