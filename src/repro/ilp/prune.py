"""Theory post-processing: clause reduction and redundancy elimination.

April (the paper's host system) inherits Progol-style post-processing:
learned rules can carry literals that no longer constrain anything, and a
greedy covering run can accept rules made redundant by later, more
general ones.  These passes clean both up **without changing the theory's
training-set extension** — each transformation is verified against the
coverage bitsets before being kept, so pruning is semantics-preserving by
construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ilp.coverage import coverage_bitset
from repro.logic.clause import Clause, Theory
from repro.logic.engine import Engine
from repro.logic.subsumption import reduce_clause
from repro.logic.terms import Term

__all__ = ["prune_clause", "prune_theory", "drop_redundant_clauses", "ClauseBag"]


class ClauseBag:
    """An insertion-ordered candidate-rule bag deduplicating variants.

    The parallel masters collect every pipeline's rules into a bag before
    global evaluation.  Keying the bag by the order-preserving
    :meth:`repro.logic.clause.Clause.variant_key` collapses renamed-apart
    copies of a rule — same literals in the same order, hence
    charge-for-charge identical resource-bounded coverage — into one slot
    in O(1), instead of either evaluating both remotely or running
    pairwise θ-subsumption over the whole bag.  (The order-insensitive
    fingerprint is deliberately not used here: reordered bodies can
    exhaust query budgets differently, so their global stats need not
    coincide.)

    When two variants collide, the **lexicographically smallest** rendering
    is kept: that is exactly the representative the master's deterministic
    tie-break (`score desc, length, str`) would end up accepting, so the
    learned theory is bit-identical to one that evaluates every duplicate.
    ``reported_size`` counts clauses distinct by plain equality — the
    number a bag without variant merging would hold — so epoch logs
    (Tables 3-5) are what the paper's bag sizes mean.
    """

    __slots__ = ("_by_key", "_exact")

    def __init__(self):
        self._by_key: dict = {}
        self._exact: set = set()

    def add(self, clause: Clause) -> None:
        self._exact.add(clause)
        key = clause.variant_key()
        prev = self._by_key.get(key)
        if prev is None:
            self._by_key[key] = clause
        elif prev is not clause and str(clause) < str(prev):
            # Keep the tie-break winner; the slot keeps its bag position.
            self._by_key[key] = clause

    def discard(self, clause: Clause) -> None:
        self._by_key.pop(clause.variant_key(), None)

    def __iter__(self):
        return iter(list(self._by_key.values()))

    def __len__(self) -> int:
        return len(self._by_key)

    @property
    def reported_size(self) -> int:
        """Bag size by plain clause equality (what the epoch logs report)."""
        return len(self._exact)

    def __contains__(self, clause: Clause) -> bool:
        return clause.variant_key() in self._by_key

    def clauses(self) -> list[Clause]:
        return list(self._by_key.values())


def prune_clause(
    engine: Engine,
    clause: Clause,
    pos: Sequence[Term],
    neg: Sequence[Term],
) -> Clause:
    """Drop body literals whose removal changes no example's coverage.

    Subtly stronger than pure θ-reduction: a literal can be logically
    non-redundant yet extensionally idle on this training set (e.g. a type
    check every constant already satisfies).  Removal is kept only when
    positive *and* negative coverage stay identical, so consistency is
    preserved exactly.
    """
    best = clause
    pos_ref = coverage_bitset(engine, clause, pos)
    neg_ref = coverage_bitset(engine, clause, neg)
    changed = True
    while changed:
        changed = False
        body = list(best.body)
        for i in range(len(body)):
            candidate = Clause(best.head, tuple(body[:i] + body[i + 1 :]))
            if (
                coverage_bitset(engine, candidate, pos) == pos_ref
                and coverage_bitset(engine, candidate, neg) == neg_ref
            ):
                best = candidate
                changed = True
                break
    return best


def drop_redundant_clauses(
    engine: Engine,
    theory: Theory,
    pos: Sequence[Term],
) -> Theory:
    """Remove clauses that cover no positive example uniquely.

    Greedy back-to-front sweep: a clause is dropped if the remaining
    clauses still cover every positive the full theory covered.  (Negative
    coverage can only shrink when clauses are removed, so consistency is
    monotone under this pass.)
    """
    clauses = list(theory)
    full_cover = 0
    covers = []
    for c in clauses:
        bits = coverage_bitset(engine, c, pos)
        covers.append(bits)
        full_cover |= bits
    keep = list(range(len(clauses)))
    for i in reversed(range(len(clauses))):
        others = 0
        for j in keep:
            if j != i:
                others |= covers[j]
        if i in keep and others == full_cover:
            keep.remove(i)
    return Theory([clauses[i] for i in sorted(keep)])


def prune_theory(
    engine: Engine,
    theory: Theory,
    pos: Sequence[Term],
    neg: Sequence[Term],
    reduce_first: bool = True,
) -> Theory:
    """Full post-processing pipeline: θ-reduce, extensionally prune each
    clause, then drop redundant clauses.

    >>> # extension preserved by construction; see tests for properties
    """
    out = []
    for c in theory:
        c2 = reduce_clause(c) if reduce_first else c
        out.append(prune_clause(engine, c2, pos, neg))
    return drop_redundant_clauses(engine, Theory(out), pos)
