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

import heapq
from dataclasses import dataclass, field
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
    width: Optional[int] = ...,
) -> SearchResult:
    """Breadth-first search for good rules (Figs. 2 and 7).

    Parameters
    ----------
    seeds:
        Starting rules (pipeline stage > 1).  ``None`` ⇒ start from the
        bare head.
    width:
        Number of best good rules to return; default (ellipsis) uses
        ``config.pipeline_width``; ``None`` means no limit.
    """
    if width is ...:
        width = config.pipeline_width
    ops_before = engine.total_ops

    open_list: list[SearchRule] = list(seeds) if seeds else [start_rule(bottom)]
    good: dict = {}  # clause -> EvaluatedRule (dedup)
    seen: set = set()
    state = _SearchState(good=good, seen=seen)

    def evaluate(rule: SearchRule) -> Optional[tuple]:
        """Evaluate one node; returns (stats, score) or None if duplicate.
        Collects good rules and enforces the node budget as side effects."""
        if rule.clause in seen:
            return None
        seen.add(rule.clause)
        state.nodes += 1
        # Coverage inheritance: a refinement only needs testing on the
        # examples its parent covered (the parent is cached — search
        # always evaluates a node before expanding it).
        stats = store.evaluate(engine, rule.clause, parent=rule.parent)
        score = score_rule(stats.pos, stats.neg)
        if rule.clause.body and is_good(stats.pos, stats.neg, config):
            prev = good.get(rule.clause)
            if prev is None or score > prev.score:
                good[rule.clause] = EvaluatedRule(rule, stats, score)
        if state.nodes >= config.max_nodes:
            state.exhausted = True
        return stats, score

    strategy = {
        "bfs": _search_bfs,
        "best_first": _search_best_first,
        "beam": _search_beam,
    }[config.search_strategy]
    strategy(open_list, bottom, config, evaluate, state)

    ranked = sorted(good.values(), key=EvaluatedRule.sort_key)
    if width is not None:
        ranked = ranked[:width]
    return SearchResult(
        good=ranked,
        nodes_generated=state.nodes,
        ops=engine.total_ops - ops_before,
        exhausted=state.exhausted,
    )


@dataclass
class _SearchState:
    good: dict
    seen: set
    nodes: int = 0
    exhausted: bool = False


def _search_bfs(open_list, bottom, config, evaluate, state) -> None:
    """The paper's strategy: top-down breadth-first (FIFO queue)."""
    queue = list(open_list)
    qi = 0
    while qi < len(queue) and not state.exhausted:
        rule = queue[qi]
        qi += 1
        result = evaluate(rule)
        if result is None or state.exhausted:
            continue
        stats, _score = result
        # Prune: specialisation can only shrink positive cover.
        if stats.pos < config.min_pos:
            continue
        queue.extend(refinements(rule, bottom, config))


def _search_best_first(open_list, bottom, config, evaluate, state) -> None:
    """Heuristic-ordered expansion: always pop the most promising node
    (children are prioritised by their parent's score)."""
    seq = 0
    heap: list = []
    for r in open_list:
        heapq.heappush(heap, (0.0, seq, r))
        seq += 1
    while heap and not state.exhausted:
        _prio, _seq, rule = heapq.heappop(heap)
        result = evaluate(rule)
        if result is None or state.exhausted:
            continue
        stats, score = result
        if stats.pos < config.min_pos:
            continue
        for child in refinements(rule, bottom, config):
            heapq.heappush(heap, (-score, seq, child))
            seq += 1


def _search_beam(open_list, bottom, config, evaluate, state) -> None:
    """Level-synchronous beam: keep the ``beam_width`` best nodes per
    level, expand only those."""
    frontier = list(open_list)
    while frontier and not state.exhausted:
        scored: list[tuple[float, int, SearchRule]] = []
        for i, rule in enumerate(frontier):
            result = evaluate(rule)
            if result is None:
                continue
            stats, score = result
            # The node that trips the budget was still evaluated: keep it
            # as a survivor candidate before stopping the level.
            if stats.pos >= config.min_pos:
                scored.append((-score, i, rule))
            if state.exhausted:
                break
        scored.sort()
        survivors = [r for _, _, r in scored[: config.beam_width]]
        frontier = [c for r in survivors for c in refinements(r, bottom, config)]
