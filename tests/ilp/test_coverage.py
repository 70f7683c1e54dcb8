"""Unit tests for coverage evaluation and bitsets."""

import pytest

from repro.ilp.coverage import (
    coverage_bitset,
    covers,
    indices_from_bitset,
    popcount,
)
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_clause, parse_term


@pytest.fixture
def eng():
    kb = KnowledgeBase()
    kb.add_program("q(a). q(b). r(b).")
    return Engine(kb)


class TestCovers:
    def test_fact_rule(self, eng):
        assert covers(eng, parse_clause("p(X) :- q(X)."), parse_term("p(a)"))

    def test_miss(self, eng):
        assert not covers(eng, parse_clause("p(X) :- q(X)."), parse_term("p(z)"))

    def test_conjunction(self, eng):
        rule = parse_clause("p(X) :- q(X), r(X).")
        assert covers(eng, rule, parse_term("p(b)"))
        assert not covers(eng, rule, parse_term("p(a)"))

    def test_bare_head_covers_matching(self, eng):
        assert covers(eng, parse_clause("p(X)."), parse_term("p(anything)"))

    def test_head_functor_mismatch(self, eng):
        assert not covers(eng, parse_clause("p(X) :- q(X)."), parse_term("s(a)"))

    def test_head_constant_filter(self, eng):
        rule = parse_clause("p(a) :- q(a).")
        assert covers(eng, rule, parse_term("p(a)"))
        assert not covers(eng, rule, parse_term("p(b)"))

    def test_rule_variables_fresh_per_example(self, eng):
        # same rule evaluated twice must not leak bindings
        rule = parse_clause("p(X) :- q(X).")
        assert covers(eng, rule, parse_term("p(a)"))
        assert covers(eng, rule, parse_term("p(b)"))


class TestBitsets:
    def test_coverage_bitset(self, eng):
        rule = parse_clause("p(X) :- q(X).")
        examples = [parse_term("p(a)"), parse_term("p(z)"), parse_term("p(b)")]
        bits = coverage_bitset(eng, rule, examples)
        assert bits == 0b101

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b10110) == 3

    def test_roundtrip(self):
        idx = [0, 3, 17]
        assert list(indices_from_bitset(sum(1 << i for i in idx))) == idx
