"""Example store: a (sub)set of training examples with liveness tracking.

Both the sequential algorithm and each parallel worker hold their examples
in an :class:`ExampleStore`.  Positive examples are never physically
removed; instead an ``alive`` bitmask tracks which are still uncovered.
Because coverage bitsets are computed over the *full* positive list, cached
rule evaluations stay valid across ``mark_covered`` steps — only the mask
changes.  (Negative examples are never removed.)

**Coverage inheritance.**  A refinement can only cover a subset of its
parent rule's coverage, so when the parent's bitsets are cached, only the
examples the parent covered (plus those whose parent query merely ran out
of budget) are re-tested.  As search descends the lattice the per-node work
shrinks with the parent's coverage — the deeper the rule, the cheaper its
evaluation.  Lineage is a key prefix, never a field: refinement appends
one literal, so a rule's parent is its body minus the last literal, and
that clause's variant key is the rule's key up to
:meth:`~repro.logic.clause.Clause.parent_key_length`.  Every rule — a
search node, a wire-decoded seed, a master's bag rule — narrows against
that cached entry with no parent clause built.  That is sound only
because cache entries are never evicted.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ilp.coverage import CoverageStats, coverage_eval, popcount
from repro.logic.clause import Clause
from repro.logic.engine import Engine
from repro.logic.terms import Term

__all__ = ["ExampleStore"]


class ExampleStore:
    """Positive/negative examples plus a coverage-evaluation cache.

    Rules are evaluated with their bodies in the order refinement built
    them, and cached under their order-preserving variant key.  Entries
    are never evicted: derived lineage relies on a parent's entry
    outliving every evaluation of its refinements.
    """

    def __init__(self, pos: Sequence[Term], neg: Sequence[Term]):
        self.pos: list[Term] = list(pos)
        self.neg: list[Term] = list(neg)
        #: bitmask over ``self.pos``: bit i set ⇔ example i still uncovered.
        self.alive: int = (1 << len(self.pos)) - 1
        # variant key -> (pos_bits, neg_bits, pos_exhausted, neg_exhausted,
        # pos_scope).  Keyed by the order-preserving variant key:
        # renamed-apart copies of a rule (same literals, same order) are
        # charge-for-charge identical to evaluate, so a variant of an
        # evaluated rule is a cache hit instead of a full engine run.
        # (Reordered bodies key apart on purpose: body order changes
        # budget-exhaustion behaviour.)
        # ``pos_scope`` records which positives were in the
        # evaluation's scope (alive at the time): bits are exact inside it,
        # unknown outside.  Since liveness normally only shrinks, cached
        # entries stay valid; if liveness is ever restored (the independent
        # baseline does), evaluation tops the entry up over the difference.
        self._cache: dict[str, tuple[int, int, int, int, int]] = {}
        self._hits = 0
        self._misses = 0

    # -- liveness ---------------------------------------------------------------
    @property
    def n_pos(self) -> int:
        return len(self.pos)

    @property
    def n_neg(self) -> int:
        return len(self.neg)

    @property
    def remaining(self) -> int:
        """Number of still-uncovered positive examples."""
        return popcount(self.alive)

    def kill(self, pos_bits: int) -> int:
        """Remove covered positives; returns how many were newly covered."""
        newly = popcount(self.alive & pos_bits)
        self.alive &= ~pos_bits
        return newly

    # -- evaluation ---------------------------------------------------------------
    def evaluate(self, engine: Engine, rule: Clause) -> CoverageStats:
        """Evaluate ``rule`` on this store (alive positives, all negatives).

        Results are cached per clause; the cache survives ``kill`` because
        bitsets are over the full example lists.  If the bitsets of the
        rule's parent (its body minus the last literal, keyed by its key's
        parent prefix) are cached, only examples the parent covered (or
        whose query exhausted its budget) are tested.
        """
        key = rule.variant_key()
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            pb, nb, pe, ne, scope = cached
            missing = self.alive & ~scope
            if missing:
                # Liveness was restored after this entry was computed: top
                # it up over the never-tested examples so it is exact again
                # on the current alive set.
                pb2, pe2 = coverage_eval(engine, rule, self.pos, missing)
                pb |= pb2
                pe |= pe2
                scope |= missing
                self._cache[key] = (pb, nb, pe, ne, scope)
        else:
            self._misses += 1
            cand_p = scope = self.alive
            cand_n: Optional[int] = None
            plen = rule.parent_key_length()
            if plen:
                pc = self._cache.get(key[:plen])
                if pc is not None:
                    ppb, pnb, ppe, pne, pscope = pc
                    # Outside the parent's evaluation scope its verdict
                    # is unknown (liveness may have been restored since)
                    # — those examples must stay candidates.
                    cand_p &= ppb | ppe | ~pscope
                    cand_n = pnb | pne
            pb, pe = coverage_eval(engine, rule, self.pos, cand_p)
            nb, ne = coverage_eval(engine, rule, self.neg, cand_n)
            self._cache[key] = (pb, nb, pe, ne, scope)
        live = pb & self.alive
        return CoverageStats(pos=popcount(live), neg=popcount(nb), pos_bits=live, neg_bits=nb)

    # -- cache effectiveness (reported by the benchmark suite) -------------------
    def cache_hits(self) -> int:
        """Evaluations answered from the cache since construction."""
        return self._hits

    def cache_misses(self) -> int:
        """Evaluations that had to run the engine since construction."""
        return self._misses
