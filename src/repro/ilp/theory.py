"""Learned theories: prediction and accuracy measurement.

A theory classifies a ground example as positive iff *some* clause covers
it (Prolog first-match semantics).  Predictive accuracy over a labelled
test set is ``(TP + TN) / (P + N)`` — covered positives plus rejected
negatives — exactly the "percentage of correctly classified examples" the
paper reports in Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.ilp.coverage import covers, popcount, theory_covered_bits
from repro.logic.clause import Theory
from repro.logic.engine import Engine
from repro.logic.terms import Term

__all__ = ["predicts", "confusion", "accuracy", "TheoryReport"]


def predicts(engine: Engine, theory: Theory, example: Term) -> bool:
    """True iff some clause of ``theory`` covers ``example``."""
    return any(covers(engine, c, example) for c in theory)


@dataclass(frozen=True)
class TheoryReport:
    """Confusion counts for a theory on a labelled example set."""

    tp: int
    fn: int
    tn: int
    fp: int

    @property
    def accuracy(self) -> float:
        total = self.tp + self.fn + self.tn + self.fp
        return (self.tp + self.tn) / total if total else 0.0


def confusion(engine: Engine, theory: Theory, pos: Sequence[Term], neg: Sequence[Term]) -> TheoryReport:
    """Confusion counts of ``theory`` over a labelled pos/neg example set.

    One clause-at-a-time pass per example list — the union of clause
    coverages :func:`predicts` computes one example at a time.
    """
    clauses = tuple(theory)
    tp = popcount(theory_covered_bits(engine, clauses, pos))
    fp = popcount(theory_covered_bits(engine, clauses, neg))
    return TheoryReport(tp=tp, fn=len(pos) - tp, tn=len(neg) - fp, fp=fp)


def accuracy(engine: Engine, theory: Theory, pos: Sequence[Term], neg: Sequence[Term]) -> float:
    """Percentage (0-100) of correctly classified examples."""
    return 100.0 * confusion(engine, theory, pos, neg).accuracy
