"""What the breadth-first ``learn_rule`` loop guarantees, on every generator.

The paper's search (Figs. 2 and 7) is top-down and breadth-first through
the subsequence lattice of one bottom clause.  For each generator x
{small, paper} at seed 0, the bottom clause of the first positive is
searched under the dataset's own config, recording every
``ExampleStore.evaluate`` call and every expansion.  The records must show
a breadth-first search: the bare head first, clause lengths that never
decrease, each clause evaluated once and after its parent, exactly the
nodes that still cover ``min_pos`` positives expanded, and a node budget
that cuts the same order short.  ``carcinogenesis`` spends its whole
budget; the other generators exhaust their lattice first.
"""

from dataclasses import dataclass
from functools import lru_cache

import pytest

from repro.datasets import make_dataset
from repro.ilp import search as search_mod
from repro.ilp.bottom import build_bottom
from repro.ilp.heuristics import is_good, score_rule
from repro.ilp.refinement import start_rule
from repro.ilp.search import EvaluatedRule, learn_rule
from repro.ilp.store import ExampleStore
from repro.logic.clause import Clause
from repro.logic.engine import Engine

DATASETS = ("trains", "krki", "carcinogenesis", "mesh", "pyrimidines")
SCALES = ("small", "paper")


class RecordingStore(ExampleStore):
    """An example store that logs ``(clause, parent key, stats)`` per call:
    the parent key is the prefix of the clause's variant key the store
    looks its parent up by (None for the bare head)."""

    def __init__(self, pos, neg):
        super().__init__(pos, neg)
        self.calls: list = []

    def evaluate(self, engine, rule):
        stats = super().evaluate(engine, rule)
        parent = rule.variant_key()[: rule.parent_key_length()] if rule.body else None
        self.calls.append((rule, parent, stats))
        return stats


@dataclass
class Searched:
    config: object
    bottom: object
    result: object
    calls: list  # (clause, parent key, stats) in evaluation order
    expanded: list  # (clause, [child clauses]) in expansion order

    @property
    def clauses(self) -> list:
        return [c for c, _, _ in self.calls]


def search(name: str, scale: str, seeds=None, width=None, **replace) -> Searched:
    ds = make_dataset(name, seed=0, scale=scale)
    config = ds.config.replace(**replace)
    engine = Engine(ds.kb, config.engine_budget())
    bottom = build_bottom(ds.pos[0], engine, ds.modes, config)
    store = RecordingStore(ds.pos, ds.neg)
    expanded: list = []
    refine = search_mod.refinements

    def recording(rule, bottom, config):
        kids = list(refine(rule, bottom, config))
        expanded.append((rule.clause, [k.clause for k in kids]))
        return kids

    seeds = seeds(bottom, config) if seeds else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "refinements", recording)
        result = learn_rule(engine, bottom, store, config, seeds=seeds, width=width)
    return Searched(config, bottom, result, store.calls, expanded)


@lru_cache(maxsize=None)
def unbounded(name: str, scale: str) -> Searched:
    """The unseeded, unlimited-width search (each case runs once)."""
    return search(name, scale)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", DATASETS)
class TestBreadthFirstSearch:
    def test_starts_at_the_bare_head(self, name, scale):
        s = unbounded(name, scale)
        head, parent, _ = s.calls[0]
        assert head == start_rule(s.bottom).clause
        assert head.body == () and parent is None

    def test_evaluates_level_by_level(self, name, scale):
        lengths = [len(c.body) for c in unbounded(name, scale).clauses]
        assert lengths == sorted(lengths)
        assert lengths[-1] >= 1  # the search got past the head

    def test_evaluates_each_clause_once_after_its_parent(self, name, scale):
        s = unbounded(name, scale)
        assert len(set(s.clauses)) == len(s.clauses)
        position = {c: i for i, c in enumerate(s.clauses)}
        for i, (clause, parent, _) in enumerate(s.calls[1:], start=1):
            up = position[Clause(clause.head, clause.body[:-1])]
            assert up < i and parent == s.clauses[up].variant_key()

    def test_counts_every_evaluation_against_the_budget(self, name, scale):
        s = unbounded(name, scale)
        n = len(s.calls)
        assert s.result.nodes_generated == n <= s.config.max_nodes
        assert s.result.exhausted == (n == s.config.max_nodes)
        assert s.result.exhausted == (name == "carcinogenesis")

    def test_expands_exactly_what_still_covers_min_pos(self, name, scale):
        s = unbounded(name, scale)
        covering = [c for c, _, stats in s.calls if stats.pos >= s.config.min_pos]
        if s.result.exhausted and covering and covering[-1] == s.clauses[-1]:
            covering.pop()  # the budget trips before this node expands
        assert [c for c, _ in s.expanded] == covering

    def test_evaluates_every_child_the_budget_reaches(self, name, scale):
        # FIFO order: once a clause of length L is evaluated, every clause
        # of length L - 1 has left the queue, so every child of an
        # expanded clause of length <= L - 2 has been evaluated.  With the
        # budget unspent, every child of every expanded clause has.
        s = unbounded(name, scale)
        evaluated = set(s.clauses)
        reach = len(s.clauses[-1].body) - 2 if s.result.exhausted else None
        for clause, kids in s.expanded:
            if reach is None or len(clause.body) <= reach:
                assert set(kids) <= evaluated, clause

    def test_keeps_every_good_rule_it_evaluates_ranked(self, name, scale):
        s = unbounded(name, scale)
        good = {
            c: stats
            for c, _, stats in s.calls
            if c.body and is_good(stats.pos, stats.neg, s.config)
        }
        assert {er.clause: er.stats for er in s.result.good} == good
        assert all(er.score == score_rule(er.stats.pos, er.stats.neg) for er in s.result.good)
        assert s.result.good == sorted(s.result.good, key=EvaluatedRule.sort_key)

    def test_a_smaller_budget_cuts_the_same_order(self, name, scale):
        full = unbounded(name, scale).clauses
        for budget in (1, 2, len(full) // 2):
            cut = search(name, scale, max_nodes=budget)
            assert cut.clauses == full[:budget], budget
            assert cut.result.exhausted and cut.result.nodes_generated == budget

    def test_width_keeps_the_best_good_rules(self, name, scale):
        full = unbounded(name, scale).result.good
        for width in (1, 3):
            kept = search(name, scale, width=width).result.good
            assert kept == full[:width], width

    def test_a_seeded_search_starts_from_its_seeds(self, name, scale):
        # Fig. 7: a pipeline stage re-evaluates the rules it received
        # first, in order, keeps the good ones and refines from them.  A
        # rule received twice is evaluated once.
        def first_children(bottom, config):
            kids = list(search_mod.refinements(start_rule(bottom), bottom, config))
            return kids[:3] + kids[:1]

        s = search(name, scale, seeds=first_children)
        full = unbounded(name, scale)
        seeds = full.expanded[0][1][:3]
        assert s.clauses[: len(seeds)] == seeds
        assert len(set(s.clauses)) == len(s.clauses)
        assert start_rule(s.bottom).clause not in s.clauses
        kept = {er.clause for er in s.result.good}
        for clause, _, stats in s.calls[: len(seeds)]:
            assert (clause in kept) == is_good(stats.pos, stats.neg, s.config)
