"""ExampleStore cache-effectiveness counters (benchmark reporting hooks)."""

from repro.ilp.store import ExampleStore
from repro.logic.clause import Clause
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_clause, parse_term


def _setup():
    kb = KnowledgeBase()
    kb.add_program("p(a). p(b). q(a).")
    engine = Engine(kb)
    pos = [parse_term("p(a)"), parse_term("p(b)")]
    neg = [parse_term("p(c)")]
    store = ExampleStore(pos, neg)
    rule = parse_clause("p(X) :- q(X).")
    return engine, store, rule


def test_hits_and_misses_counted():
    engine, store, rule = _setup()
    assert store.cache_hits() == store.cache_misses() == 0
    store.evaluate(engine, rule)
    assert (store.cache_misses(), store.cache_hits()) == (1, 0)
    store.evaluate(engine, rule)
    store.evaluate(engine, rule)
    assert (store.cache_misses(), store.cache_hits()) == (1, 2)


def test_cache_survives_kill_and_counts_hits():
    engine, store, rule = _setup()
    first = store.evaluate(engine, rule)
    store.kill(first.pos_bits)
    again = store.evaluate(engine, rule)
    assert store.cache_hits() == 1
    assert again.pos == 0  # the covered positive is dead now

