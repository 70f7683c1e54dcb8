"""The ``learn_rule`` search (paper Figs. 2 and 7).

A top-down breadth-first search through the subsequence lattice of a
bottom clause.  Rules are generated by :mod:`repro.ilp.refinement`,
evaluated on the local :class:`~repro.ilp.store.ExampleStore`, and the best
``width`` *good* rules are returned (``width=None`` returns every good rule
— the paper's "nolimit" pipeline configuration).

The same function serves both algorithms:

* sequential MDIE calls it with ``seeds=None`` (search starts at the bare
  head, Fig. 2) and picks ``bestOf`` the result;
* each pipeline stage calls it with ``seeds=`` the rules received from the
  previous stage (Fig. 7's ``learn_rule'(⊥e, step, w, S)``), which are
  re-evaluated locally, included in ``Good`` (Fig. 7 line 1), and used as
  the open list's starting points.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.ilp.bottom import BottomClause
from repro.ilp.config import ILPConfig
from repro.ilp.coverage import CoverageStats
from repro.ilp.heuristics import is_good, score_rule
from repro.ilp.refinement import SearchRule, refinements, start_rule
from repro.ilp.store import ExampleStore
from repro.logic.engine import Engine

__all__ = ["EvaluatedRule", "SearchResult", "learn_rule"]


@dataclass(frozen=True)
class EvaluatedRule:
    """A search rule with its (local or global) evaluation."""

    rule: SearchRule
    stats: CoverageStats
    score: float

    @property
    def clause(self):
        return self.rule.clause

    def sort_key(self) -> tuple:
        """Deterministic ordering: score desc, shorter first, text tiebreak."""
        return (-self.score, len(self.rule.clause.body), str(self.rule.clause))


@dataclass
class SearchResult:
    """Outcome of one ``learn_rule`` invocation."""

    good: list[EvaluatedRule]
    nodes_generated: int
    ops: int
    exhausted: bool  # hit the max_nodes threshold

    @property
    def best(self) -> Optional[EvaluatedRule]:
        return self.good[0] if self.good else None


def learn_rule(
    engine: Engine,
    bottom: BottomClause,
    store: ExampleStore,
    config: ILPConfig,
    seeds: Optional[Sequence[SearchRule]] = None,
    *,
    width: Optional[int],
) -> SearchResult:
    """Breadth-first search for good rules (Figs. 2 and 7).

    Parameters
    ----------
    seeds:
        Starting rules (pipeline stage > 1).  ``None`` ⇒ start from the
        bare head.
    width:
        Number of best good rules to return; ``None`` means no limit.
    """
    ops_before = engine.total_ops
    queue = deque(seeds if seeds else [start_rule(bottom)])
    good: list[EvaluatedRule] = []
    seen: set = set()  # each clause is evaluated once
    nodes = 0
    while queue:
        rule = queue.popleft()
        if rule.clause in seen:
            continue
        seen.add(rule.clause)
        nodes += 1
        # Coverage inheritance: a refinement only needs testing on the
        # examples its parent covered (the parent is cached — search
        # always evaluates a node before expanding it).
        stats = store.evaluate(engine, rule.clause)
        if rule.clause.body and is_good(stats.pos, stats.neg, config):
            good.append(EvaluatedRule(rule, stats, score_rule(stats.pos, stats.neg)))
        if nodes >= config.max_nodes:
            break
        # Prune: specialisation can only shrink positive cover.
        if stats.pos >= config.min_pos:
            queue.extend(refinements(rule, bottom, config))

    ranked = sorted(good, key=EvaluatedRule.sort_key)
    if width is not None:
        ranked = ranked[:width]
    return SearchResult(
        good=ranked,
        nodes_generated=nodes,
        ops=engine.total_ops - ops_before,
        exhausted=nodes >= config.max_nodes,
    )
