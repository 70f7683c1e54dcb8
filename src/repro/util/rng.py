"""Seeded randomness plumbing.

Every stochastic choice in the library (example partitioning, seed-example
selection, dataset synthesis, fold assignment) flows through a
:class:`RngStream` derived from a single user-provided seed.  Identical
seeds therefore reproduce identical theories, virtual times and message
byte counts — a property the test suite asserts.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect
from dataclasses import dataclass, field
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


@dataclass
class RngStream:
    """A named hierarchy of reproducible RNGs.

    >>> root = RngStream(seed=42)
    >>> a = root.child("partition")
    >>> b = root.child("partition")
    >>> a.rng.random() == b.rng.random()
    True
    """

    seed: int
    path: tuple = ()
    _rng: random.Random | None = field(default=None, repr=False)

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(derive_seed(self.seed, *self.path))
        return self._rng

    def child(self, *labels: object) -> "RngStream":
        return RngStream(seed=self.seed, path=self.path + tuple(labels))

    # Convenience passthroughs -------------------------------------------------
    def shuffle(self, xs: list) -> None:
        self.rng.shuffle(xs)

    def choice(self, xs):
        return self.rng.choice(xs)

    def randint(self, a: int, b: int) -> int:
        return self.rng.randint(a, b)

    def random(self) -> float:
        return self.rng.random()

    def uniform(self, a: float, b: float) -> float:
        return self.rng.uniform(a, b)

    def sample(self, xs, k: int):
        return self.rng.sample(xs, k)

    def gauss(self, mu: float, sigma: float) -> float:
        return self.rng.gauss(mu, sigma)
