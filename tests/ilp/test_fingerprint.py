"""The canonical clause signature: variant invariance, soundness, and the
search-layer consumers (ExampleStore cache, ClauseBag).

``variant_key()`` is renaming-invariant and order-preserving; it keys the
evaluation caches and rule bags, because resource-bounded evaluation is
body-order-sensitive (a reordered body may exhaust its op budget
differently) while being exactly invariant under renaming.
"""

import pytest

from repro.ilp.coverage import coverage_eval, popcount
from repro.parallel.master import ClauseBag
from repro.ilp.store import ExampleStore
from repro.logic.clause import Clause
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_clause, parse_term


def fp(src: str) -> str:
    return parse_clause(src).variant_key()


def vk(src: str) -> str:
    return parse_clause(src).variant_key()


class TestVariantKey:
    def test_renaming_invariant(self):
        assert vk("p(X) :- q(X, Y), r(Y).") == vk("p(A) :- q(A, B), r(B).")

    def test_order_sensitive(self):
        # deliberate: budgeted evaluation is body-order-sensitive
        assert vk("p(X) :- q(X, Y), r(Y).") != vk("p(A) :- r(B), q(A, B).")

    def test_distinct_wiring_distinct(self):
        assert vk("p(X) :- q(X, X).") != vk("p(X) :- q(X, Y).")
        assert vk("p(X, Y) :- q(Y).") != vk("p(X, 1) :- q(1).")


class TestVariantInvariance:
    def test_renaming_invariant(self):
        assert fp("p(X) :- q(X, Y), r(Y).") == fp("p(A) :- q(A, B), r(B).")

    def test_facts(self):
        assert fp("p(a).") == fp("p(a).")
        assert fp("p(a).") != fp("p(b).")

    def test_cached_on_clause(self):
        c = parse_clause("p(X) :- q(X).")
        assert c.variant_key() is c.variant_key()


class TestSoundness:
    """Equal keys must imply variants — never merge non-equivalent
    clauses."""

    def test_distinct_var_sharing(self):
        # q(X, X) is NOT a variant of q(X, Y)
        assert fp("p(X) :- q(X, X).") != fp("p(X) :- q(X, Y).")

    def test_var_vs_const_numbering_cannot_collide(self):
        # a numbered variable must not collide with an integer constant
        assert fp("p(X, Y) :- q(Y).") != fp("p(X, 1) :- q(1).")
        assert fp("p(X) :- q(X, 1).") != fp("p(X) :- q(X, Y).")

    def test_int_vs_float_vs_symbol(self):
        assert fp("p(1).") != fp("p(1.0).")
        assert fp("p(1).") != fp("p('1').")

    def test_different_literals(self):
        assert fp("p(X) :- q(X).") != fp("p(X) :- r(X).")
        assert fp("p(X) :- q(X).") != fp("p(X) :- q(X), q(X).")

    def test_cross_literal_linkage(self):
        # same skeletons, different variable wiring
        assert fp("p(X) :- q(X, Y), r(Y).") != fp("p(X) :- q(X, Y), r(X).")


class TestStoreCacheVariants:
    def setup_method(self):
        self.kb = KnowledgeBase()
        self.kb.add_program("q(a). q(b). r(a).")
        self.engine = Engine(self.kb)
        self.pos = [parse_term("p(a)"), parse_term("p(b)")]
        self.neg = [parse_term("p(c)")]

    def test_renamed_variant_is_cache_hit(self):
        store = ExampleStore(self.pos, self.neg)
        c1 = parse_clause("p(X) :- q(X), r(X).")
        c2 = parse_clause("p(Z) :- q(Z), r(Z).")  # renamed variant of c1
        s1 = store.evaluate(self.engine, c1)
        assert store.cache_misses() == 1
        s2 = store.evaluate(self.engine, c2)
        assert store.cache_misses() == 1 and store.cache_hits() == 1
        assert (s1.pos_bits, s1.neg_bits) == (s2.pos_bits, s2.neg_bits)

    def test_reordered_variant_is_a_miss(self):
        # Reordered bodies can exhaust query budgets differently: they
        # must never share a cache entry.
        store = ExampleStore(self.pos, self.neg)
        store.evaluate(self.engine, parse_clause("p(X) :- q(X), r(X)."))
        store.evaluate(self.engine, parse_clause("p(Z) :- r(Z), q(Z)."))
        assert store.cache_misses() == 2

    def test_variant_stats_equal_fresh_eval(self):
        keyed = ExampleStore(self.pos, self.neg)
        c1 = parse_clause("p(X) :- q(X), r(X).")
        c2 = parse_clause("p(Z) :- q(Z), r(Z).")
        keyed.evaluate(self.engine, c1)
        via_cache = keyed.evaluate(self.engine, c2)
        assert keyed.cache_hits() == 1
        # the reference: c2 itself, scanned over the full example lists
        pos_bits, _ = coverage_eval(self.engine, c2, self.pos)
        neg_bits, _ = coverage_eval(self.engine, c2, self.neg)
        assert (via_cache.pos_bits, via_cache.neg_bits) == (pos_bits, neg_bits)
        assert (via_cache.pos, via_cache.neg) == (popcount(pos_bits), popcount(neg_bits))


class TestClauseBag:
    def test_dedups_variants_keeping_tiebreak_winner(self):
        bag = ClauseBag()
        a = parse_clause("p(X) :- q(X, Y).")
        b = parse_clause("p(A) :- q(A, B).")  # variant, lexicographically smaller
        bag.add(a)
        bag.add(b)
        assert len(bag) == 1
        assert bag.clauses() == [min((a, b), key=str)]
        # epoch logs report the baseline's (equality-dedup) bag size
        assert bag.reported_size == 2

    def test_reordered_rules_not_merged(self):
        bag = ClauseBag()
        bag.add(parse_clause("p(X) :- q(X, Y), r(Y)."))
        bag.add(parse_clause("p(A) :- r(B), q(A, B)."))
        assert len(bag) == 2

    def test_insertion_order_and_discard(self):
        bag = ClauseBag()
        c1 = parse_clause("p(X) :- q(X).")
        c2 = parse_clause("p(X) :- r(X).")
        bag.add(c1)
        bag.add(c2)
        assert bag.clauses() == [c1, c2]
        assert c1 in bag
        bag.discard(c1)
        assert len(bag) == 1 and c1 not in bag

    def test_non_variants_not_merged(self):
        bag = ClauseBag()
        bag.add(parse_clause("p(X) :- q(X, X)."))
        bag.add(parse_clause("p(X) :- q(X, Y)."))
        assert len(bag) == 2
