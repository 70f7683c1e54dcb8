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
evaluation.  The same narrowing accepts externally supplied candidate
masks (the parallel masters ship them alongside rule bags).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ilp.coverage import CoverageStats, coverage_eval, popcount
from repro.ilp.reorder import optimize_clause_order
from repro.logic.clause import Clause
from repro.logic.engine import Engine
from repro.logic.terms import Struct, Term

__all__ = ["ExampleStore"]


class ExampleStore:
    """Positive/negative examples plus a coverage-evaluation cache.

    ``reorder_body=True`` evaluates a selectivity-reordered variant of
    each rule (see :mod:`repro.ilp.reorder`) while caching under the
    original clause — a pure engine-cost optimisation.
    """

    def __init__(
        self,
        pos: Sequence[Term],
        neg: Sequence[Term],
        reorder_body: bool = False,
    ):
        self.pos: list[Term] = list(pos)
        self.neg: list[Term] = list(neg)
        self.reorder_body = reorder_body
        #: bitmask over ``self.pos``: bit i set ⇔ example i still uncovered.
        self.alive: int = (1 << len(self.pos)) - 1
        # variant key -> (pos_bits, neg_bits, pos_exhausted, neg_exhausted,
        # pos_scope).  Keyed by the order-preserving variant key:
        # renamed-apart copies of a rule (same literals, same order) are
        # charge-for-charge identical to evaluate, so a variant of an
        # evaluated rule is a cache hit instead of a full engine run.
        # (The order-*insensitive* fingerprint is deliberately not used:
        # body order changes budget-exhaustion behaviour.)
        # ``pos_scope`` records which positives were in the
        # evaluation's scope (alive at the time): bits are exact inside it,
        # unknown outside.  Since liveness normally only shrinks, cached
        # entries stay valid; if liveness is ever restored (the independent
        # baseline does), evaluation tops the entry up over the difference.
        self._cache: dict[str, tuple[int, int, int, int, int]] = {}
        # clause -> its reordered evaluation form (survives clear_cache:
        # the reordering depends only on the KB, not on coverage state).
        self._reorder_cache: dict[Clause, Clause] = {}
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

    def alive_examples(self) -> list[Term]:
        return [e for i, e in enumerate(self.pos) if self.alive >> i & 1]

    def alive_indices(self) -> list[int]:
        return [i for i in range(len(self.pos)) if self.alive >> i & 1]

    def kill(self, pos_bits: int) -> int:
        """Remove covered positives; returns how many were newly covered."""
        newly = popcount(self.alive & pos_bits)
        self.alive &= ~pos_bits
        return newly

    # -- evaluation ---------------------------------------------------------------
    def evaluate(
        self,
        engine: Engine,
        rule: Clause,
        parent: Optional[Clause] = None,
        candidates: Optional[tuple[int, int]] = None,
    ) -> CoverageStats:
        """Evaluate ``rule`` on this store (alive positives, all negatives).

        Results are cached per clause; the cache survives ``kill`` because
        bitsets are over the full example lists.

        ``parent`` names the rule this one refines: if the parent's bitsets
        are cached, only examples it covered (or whose query exhausted its
        budget) are tested.  ``candidates`` is an externally supplied
        ``(pos_mask, neg_mask)`` bound with the same meaning — both sources
        are intersected when present.
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
                to_eval = self._reordered(engine.kb, rule)
                pb2, pe2 = coverage_eval(engine, to_eval, self.pos, missing)
                pb |= pb2
                pe |= pe2
                scope |= missing
                self._cache[key] = (pb, nb, pe, ne, scope)
        else:
            self._misses += 1
            to_eval = self._reordered(engine.kb, rule)
            cand_p = scope = self.alive
            if parent is None and rule.body:
                # Refinement only ever appends a literal, so the
                # lattice parent is always derivable — rules that
                # arrive without lineage (master rule bags, pipeline
                # seeds) still narrow against a cached parent.
                parent = Clause(rule.head, rule.body[:-1])
            cand_n: Optional[int] = None
            if (parent is not None or candidates is not None) and self._inherit_ok(
                engine.kb, rule
            ):
                if candidates is not None:
                    cp, cn = candidates
                    cand_p &= cp
                    cand_n = cn
                if parent is not None:
                    pc = self._cache.get(parent.variant_key())
                    if pc is not None:
                        ppb, pnb, ppe, pne, pscope = pc
                        # Outside the parent's evaluation scope its verdict
                        # is unknown (liveness may have been restored since)
                        # — those examples must stay candidates.
                        cand_p &= ppb | ppe | ~pscope
                        nm = pnb | pne
                        cand_n = nm if cand_n is None else cand_n & nm
            pb, pe = coverage_eval(engine, to_eval, self.pos, cand_p)
            nb, ne = coverage_eval(engine, to_eval, self.neg, cand_n)
            self._cache[key] = (pb, nb, pe, ne, scope)
        live = pb & self.alive
        return CoverageStats(pos=popcount(live), neg=popcount(nb), pos_bits=live, neg_bits=nb)

    def cand_masks(self, rule: Clause) -> Optional[tuple[int, int]]:
        """The sound refinement candidate masks of a cached rule:
        ``(pos covered|exhausted, neg covered|exhausted)``, or None if the
        rule was never evaluated here."""
        cached = self._cache.get(rule.variant_key())
        if cached is None:
            return None
        pb, nb, pe, ne, _scope = cached
        return (pb | pe, nb | ne)

    def _reordered(self, kb, rule: Clause) -> Clause:
        """The evaluation form of ``rule`` (memoized body reordering)."""
        if not (self.reorder_body and rule.body):
            return rule
        out = self._reorder_cache.get(rule)
        if out is None:
            out = optimize_clause_order(kb, rule)
            self._reorder_cache[rule] = out
        return out

    def _inherit_ok(self, kb, rule: Clause) -> bool:
        """Is candidate narrowing sound for ``rule``?

        Appended-literal refinement is coverage-monotone as long as the
        evaluated body order embeds the parent's derivation.  Body
        reordering may permute rule-defined (depth-consuming) literals
        ahead of each other, which can *loosen* the depth profile relative
        to the parent — so with ``reorder_body`` inheritance is only used
        when every body literal is depth-free (fact-only or builtin).
        """
        if not self.reorder_body:
            return True
        for lit in rule.body:
            ind = lit.indicator if isinstance(lit, Struct) else (str(lit), 0)
            if kb.rules_for(ind):
                return False
        return True

    # -- cache effectiveness (reported by the benchmark suite) -------------------
    def cache_size(self) -> int:
        return len(self._cache)

    def cache_hits(self) -> int:
        """Evaluations answered from the cache since construction."""
        return self._hits

    def cache_misses(self) -> int:
        """Evaluations that had to run the engine since construction."""
        return self._misses

    def cache_hit_rate(self) -> float:
        """Fraction of evaluations served from cache (0.0 when unused)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def clear_cache(self) -> None:
        """Drop cached bitsets (counters and reorderings are preserved)."""
        self._cache.clear()
