"""Example partitioning (master step 1, Fig. 5 line 2).

"The master randomly and evenly partitions the examples into p subsets" —
positives and negatives are shuffled independently and dealt round-robin,
so subset sizes differ by at most one example.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.logic.terms import Term

__all__ = ["Partition", "partition_examples", "shard_spans"]


@dataclass(frozen=True)
class Partition:
    """One worker's share of the training data."""

    pos: tuple[Term, ...]
    neg: tuple[Term, ...]


def partition_examples(
    pos: Sequence[Term],
    neg: Sequence[Term],
    p: int,
    rng: random.Random,
) -> list[Partition]:
    """Random even split of (pos, neg) into ``p`` partitions.

    Deterministic given the RNG state.  Every example lands in exactly one
    partition; sizes are balanced to within one.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    pos_idx = list(range(len(pos)))
    neg_idx = list(range(len(neg)))
    rng.shuffle(pos_idx)
    rng.shuffle(neg_idx)
    out = []
    for k in range(p):
        out.append(
            Partition(
                pos=tuple(pos[i] for i in pos_idx[k::p]),
                neg=tuple(neg[i] for i in neg_idx[k::p]),
            )
        )
    return out


def shard_spans(n: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` spans covering ``range(n)``, balanced to ±1.

    The query tier's order-preserving counterpart of
    :func:`partition_examples`: learning partitions shuffle (the paper's
    random even split), but query shards must reassemble positionally,
    so each shard takes one contiguous slice.  Earlier spans get the
    extra examples, every span is non-empty, and asking for more shards
    than examples simply yields fewer spans.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, n) or 1
    base, extra = divmod(n, shards)
    spans = []
    lo = 0
    for k in range(shards):
        hi = lo + base + (1 if k < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans
