"""Unit tests for ExampleStore liveness and caching."""

import pytest

from repro.ilp.store import ExampleStore
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_clause, parse_term


@pytest.fixture
def setup():
    kb = KnowledgeBase()
    kb.add_program("q(a). q(b). q(c).")
    eng = Engine(kb)
    pos = [parse_term(f"p({x})") for x in "abc"]
    neg = [parse_term(f"p({x})") for x in "yz"]
    return eng, ExampleStore(pos, neg)


class TestLiveness:
    def test_initial_all_alive(self, setup):
        _, store = setup
        assert store.remaining == 3
        assert store.alive == 0b111

    def test_kill_returns_newly_covered(self, setup):
        _, store = setup
        assert store.kill(0b011) == 2
        assert store.kill(0b011) == 0  # already dead
        assert store.remaining == 1

    def test_alive_examples(self, setup):
        _, store = setup
        store.kill(0b010)
        assert store.alive == 0b101
        assert store.remaining == 2


class TestEvaluate:
    def test_counts(self, setup):
        eng, store = setup
        st = store.evaluate(eng, parse_clause("p(X) :- q(X)."))
        assert (st.pos, st.neg) == (3, 0)

    def test_alive_mask_applied(self, setup):
        eng, store = setup
        rule = parse_clause("p(X) :- q(X).")
        store.evaluate(eng, rule)
        store.kill(0b001)
        st = store.evaluate(eng, rule)
        assert st.pos == 2
        assert st.pos_bits == 0b110

    def test_cache_hit_costs_nothing(self, setup):
        eng, store = setup
        rule = parse_clause("p(X) :- q(X).")
        store.evaluate(eng, rule)
        ops = eng.total_ops
        store.evaluate(eng, rule)
        assert eng.total_ops == ops
        assert (store.cache_misses(), store.cache_hits()) == (1, 1)

    def test_cache_survives_kill(self, setup):
        eng, store = setup
        rule = parse_clause("p(X) :- q(X).")
        st1 = store.evaluate(eng, rule)
        store.kill(0b100)
        ops = eng.total_ops
        st2 = store.evaluate(eng, rule)
        assert eng.total_ops == ops  # cached
        assert st2.pos == st1.pos - 1

    def test_neg_never_masked(self, setup):
        eng, store = setup
        # negatives stay: a rule covering negs keeps covering them after kill
        rule = parse_clause("p(X).")  # covers everything
        store.kill(0b111)
        st = store.evaluate(eng, rule)
        assert st.pos == 0
        assert st.neg == 2
