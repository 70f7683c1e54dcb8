"""Unit tests for the knowledge base and fact indexing."""

from itertools import combinations

import pytest

from repro.logic.knowledge import FactStore, KnowledgeBase
from repro.logic.parser import parse_clause
from repro.logic.terms import Const, Var, atom, is_ground


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

    def test_fact_dedup_counts(self):
        kb = KnowledgeBase()
        assert kb.add_fact(atom("p", "a"))
        assert not kb.add_fact(atom("p", "a"))
        assert kb.n_facts == 1


class TestAddFacts:
    """``add_facts(functor, rows)`` is one ``add_fact`` per row, only faster."""

    def test_returns_new_count_and_refuses_empty_rows(self):
        kb = KnowledgeBase()
        a, b = Const("a"), Const("b")
        assert kb.add_facts("p", [(a, b), (a, b), (b, a)]) == 2
        assert (kb.n_facts, kb.version) == (2, 2)
        with pytest.raises(ValueError, match="at least one argument"):
            kb.add_facts("p", [()])
        assert kb.predicates() == [("p", 2)]


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ROW_TERMS = [Const(v) for v in ("a", "b", "c", 0, 1, 2.5)] + [atom("f", "a"), atom("g", 1, "b")]


@st.composite
def fact_batches(draw):
    """``[(functor, rows)]``: rows of ready terms over a small domain, so
    rows repeat; a batch may mix arities or hold one non-ground row."""
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        functor = draw(st.sampled_from(["p", "q", "r"]))
        arity = draw(st.integers(1, 3))
        rows = draw(st.lists(st.tuples(*[st.sampled_from(ROW_TERMS)] * arity), max_size=12))
        if rows and draw(st.integers(0, 4)) == 0:
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = (draw(st.sampled_from([Var("X"), atom("f", "Y")])),) + rows[i][1:]
        if draw(st.integers(0, 4)) == 0:
            rows.append(draw(st.tuples(*[st.sampled_from(ROW_TERMS)] * draw(st.integers(1, 3)))))
        batches.append((functor, rows))
    return batches


def _index_everything(kb):
    for ind in kb.predicates():
        store = kb.facts_for(ind)
        for pos in range(ind[1]):
            store.access_path((pos,))
        if ind[1] > 1:
            store.access_path(tuple(range(ind[1])))
            store.access_path((0, ind[1] - 1))


def _state(kb):
    stores = {}
    for ind in kb.predicates():
        s = kb.facts_for(ind)
        stores[ind] = (list(s.facts), set(s.fact_set), s._indexes, s._composite)
    return kb.n_facts, kb.version, stores


@settings(max_examples=150, deadline=None)
@given(seed_batches=fact_batches(), batches=fact_batches(), index_before=st.booleans())
def test_add_facts_is_add_fact_per_row(seed_batches, batches, index_before):
    bulk, single = KnowledgeBase(), KnowledgeBase()
    for kb in (bulk, single):
        for functor, rows in seed_batches:
            for row in rows:
                if all(map(is_ground, row)):
                    kb.add_fact(atom(functor, *row))
        if index_before:
            _index_everything(kb)
    for functor, rows in batches:
        bulk_error = single_error = None
        added = 0
        try:
            added = bulk.add_facts(functor, iter(rows))
        except ValueError as e:
            bulk_error = str(e)
        single_added = 0
        try:
            for row in rows:
                single_added += single.add_fact(atom(functor, *row))
        except ValueError as e:
            single_error = str(e)
        assert bulk_error == single_error
        if bulk_error is None:
            assert added == single_added
    _index_everything(bulk)
    _index_everything(single)
    assert bulk.predicates() == single.predicates()
    assert list(bulk._facts) == list(single._facts)
    assert _state(bulk) == _state(single)
    for ind in bulk.predicates():
        # interned: the very same term objects, not merely equal ones
        assert all(x is y for x, y in zip(bulk.facts_for(ind).facts, single.facts_for(ind).facts))


def _signatures(arity):
    """Every composite signature of >= 2 positions, the full one included."""
    return [sig for n in range(2, arity + 1) for sig in combinations(range(arity), n)]


def _build_every_index(store):
    arity = store.indicator[1]
    for pos in range(arity):
        store.access_path((pos,))
    for sig in _signatures(arity):
        store.access_path(sig)
    store.has_args((Const("a"),) * arity)


def _ordered(indexes):
    return {sig: list(index.items()) for sig, index in indexes.items()}


@settings(deadline=None)
@given(batches=fact_batches())
def test_every_index_is_the_facts_grouped_in_insertion_order(batches):
    """Each lazily built index is ``{key: [facts in insertion order]}``, and
    equals the same index built on the empty store and kept by ``add``."""
    late, early = KnowledgeBase(), KnowledgeBase()
    rows = [(f, row) for f, rs in batches for row in rs if all(map(is_ground, row))]
    for functor, row in rows:
        _build_every_index(early.facts_for((functor, len(row))))
    for kb in (late, early):
        for functor, row in rows:
            kb.add_fact(atom(functor, *row))
    for ind in late.predicates():
        store = late.facts_for(ind)
        _build_every_index(store)

        def grouped(key):
            out = {}
            for fact in store.facts:
                out.setdefault(key(fact.args), []).append(fact)
            return list(out.items())

        for pos in range(ind[1]):
            assert list(store.access_path((pos,)).items()) == grouped(lambda a: a[pos])
        for sig in _signatures(ind[1]):
            want = grouped(lambda a: tuple(a[p] for p in sig))
            assert list(store.access_path(sig).items()) == want
        # the full signature is keyed by each fact's own argument tuple
        full = store._composite[tuple(range(ind[1]))]
        assert list(full.items()) == grouped(tuple)
        assert all(key is bucket[0].args for key, bucket in full.items())
        assert all(store.has_args(fact.args) for fact in store.facts)
        assert not store.has_args((Const("zz"),) * ind[1])
        kept = early.facts_for(ind)
        assert _ordered(kept._indexes) == _ordered(store._indexes)
        assert _ordered(kept._composite) == _ordered(store._composite)
