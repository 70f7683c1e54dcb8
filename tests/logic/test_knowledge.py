"""Unit tests for the knowledge base and fact indexing."""

import pytest

from repro.logic.knowledge import FactStore, KnowledgeBase
from repro.logic.parser import parse_clause
from repro.logic.terms import Const, Var, atom


class TestFactStore:
    def test_add_dedup(self):
        fs = FactStore(("p", 2))
        assert fs.add(atom("p", "a", "b"))
        assert not fs.add(atom("p", "a", "b"))
        assert len(fs) == 1

    def test_first_arg_index(self):
        fs = FactStore(("p", 2))
        fs.add(atom("p", "a", 1))
        fs.add(atom("p", "a", 2))
        fs.add(atom("p", "b", 3))
        assert len(fs.candidates_bound([Const("a"), Var("X")], [0])) == 2
        assert len(fs.candidates_bound([Var("X"), Var("Y")], [])) == 3

    def test_candidates_unknown_key_empty(self):
        fs = FactStore(("p", 1))
        fs.add(atom("p", "a"))
        assert fs.candidates_bound([Const("zzz")], [0]) == []

    def test_contains(self):
        fs = FactStore(("p", 1))
        fs.add(atom("p", "a"))
        assert atom("p", "a") in fs
        assert atom("p", "b") not in fs


class TestKnowledgeBase:
    def test_add_program_splits_facts_and_rules(self):
        kb = KnowledgeBase()
        kb.add_program("p(a). p(b). q(X) :- p(X).")
        assert len(kb.facts_for(("p", 1))) == 2
        assert len(kb.rules_for(("q", 1))) == 1
        assert kb.n_facts == 2

    def test_nonground_fact_rejected(self):
        kb = KnowledgeBase()
        with pytest.raises(ValueError):
            kb.add_fact(atom("p", "X"))

    def test_nonground_unit_clause_becomes_rule(self):
        kb = KnowledgeBase()
        kb.add_clause(parse_clause("p(X)."))
        assert len(kb.rules_for(("p", 1))) == 1

    def test_predicates_sorted(self):
        kb = KnowledgeBase()
        kb.add_program("b(1). a(2). c(X) :- a(X).")
        assert kb.predicates() == [("a", 1), ("b", 1), ("c", 1)]

    def test_len_counts_facts_and_rules(self):
        kb = KnowledgeBase()
        kb.add_program("p(a). q(X) :- p(X).")
        assert len(kb) == 2

    def test_copy_independent(self):
        kb = KnowledgeBase()
        kb.add_program("p(a).")
        kb2 = kb.copy()
        kb2.add_fact(atom("p", "b"))
        assert len(kb.facts_for(("p", 1))) == 1
        assert len(kb2.facts_for(("p", 1))) == 2

    def test_stats(self):
        kb = KnowledgeBase()
        kb.add_program("p(a). p(b). q(X) :- p(X).")
        assert kb.stats() == {"predicates": 2, "facts": 2, "rules": 1}

    def test_remove_rule(self):
        kb = KnowledgeBase()
        r = parse_clause("q(X) :- p(X).")
        kb.add_clause(r)
        kb.remove_rule(r)
        assert kb.rules_for(("q", 1)) == []

    def test_fact_dedup_counts(self):
        kb = KnowledgeBase()
        assert kb.add_fact(atom("p", "a"))
        assert not kb.add_fact(atom("p", "a"))
        assert kb.n_facts == 1
