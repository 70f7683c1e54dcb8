"""Coverage-inheritance invariants.

A refinement's coverage is a subset of its parent's, so evaluation may
skip every example the parent provably does not cover.  The store finds
the parent's entry by the prefix of the rule's variant key.  These tests
pin the safety side of that optimisation: narrowing never changes
results, never resurrects a pruned example, survives liveness changes,
and a rule decoded off the wire narrows exactly as one refined locally.
"""

import pytest

from repro.datasets import make_dataset
from repro.ilp import store as store_mod
from repro.ilp.coverage import coverage_eval, popcount
from repro.ilp.store import ExampleStore
from repro.logic.clause import Clause
from repro.logic.engine import Engine, QueryBudget
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_clause, parse_term
from repro.parallel import wire
from repro.parallel.messages import EvaluateRequest


@pytest.fixture
def ds():
    return make_dataset("trains", seed=0, scale="small")


@pytest.fixture
def engine(ds):
    return Engine(ds.kb, ds.config.engine_budget())


PARENT = "eastbound(A) :- has_car(A, B)."
CHILD = "eastbound(A) :- has_car(A, B), closed(B)."
GRANDCHILD = "eastbound(A) :- has_car(A, B), closed(B), short(B)."


def keyed_under(child, parent) -> bool:
    """Whether the store finds ``parent``'s entry by ``child``'s key prefix."""
    return child.variant_key()[: child.parent_key_length()] == parent.variant_key()


def cand_masks(engine, rule, pos, neg):
    """The sound refinement candidate masks of ``rule``:
    ``(pos covered|exhausted, neg covered|exhausted)``."""
    pb, pe = coverage_eval(engine, rule, pos)
    nb, ne = coverage_eval(engine, rule, neg)
    return pb | pe, nb | ne


class TestNoResurrection:
    def test_child_bits_within_parent_candidates(self, ds, engine):
        store = ExampleStore(ds.pos, ds.neg)
        parent, child = parse_clause(PARENT), parse_clause(CHILD)
        store.evaluate(engine, parent)
        pc, nc = cand_masks(engine, parent, ds.pos, ds.neg)
        assert keyed_under(child, parent)
        cs = store.evaluate(engine, child)
        assert cs.pos_bits & ~pc == 0
        assert cs.neg_bits & ~nc == 0

    def test_inherited_equals_from_scratch(self, ds, engine):
        parent, child, gchild = map(parse_clause, (PARENT, CHILD, GRANDCHILD))
        inh = ExampleStore(ds.pos, ds.neg)
        inh.evaluate(engine, parent)
        assert keyed_under(child, parent) and keyed_under(gchild, child)
        a = inh.evaluate(engine, child)
        b = inh.evaluate(engine, gchild)
        fresh = ExampleStore(ds.pos, ds.neg)
        assert fresh.evaluate(engine, child).pos_bits == a.pos_bits
        assert fresh.evaluate(engine, child).neg_bits == a.neg_bits
        assert fresh.evaluate(engine, gchild).pos_bits == b.pos_bits
        # ... and equals the reference: mask-less scans of the full lists
        for rule, stats in ((child, a), (gchild, b)):
            assert coverage_eval(engine, rule, ds.pos)[0] == stats.pos_bits
            assert coverage_eval(engine, rule, ds.neg)[0] == stats.neg_bits
        # ... at a lower cost where the parent misses examples (every train
        # has a closed car, so the lineage above prunes nothing; short cars
        # leave three negatives out).
        short = parse_clause("eastbound(A) :- has_car(A, B), short(B).")
        short_closed = parse_clause("eastbound(A) :- has_car(A, B), short(B), closed(B).")
        inh.evaluate(engine, short)
        assert keyed_under(short_closed, short)
        ops = engine.total_ops
        inherited = inh.evaluate(engine, short_closed)
        inherited_ops = engine.total_ops - ops
        from_scratch = fresh.evaluate(engine, short_closed)
        assert inherited == from_scratch
        assert inherited_ops < engine.total_ops - ops - inherited_ops

    def test_pruned_examples_never_retested(self, ds, engine, monkeypatch):
        """The narrowed evaluation literally never touches an example
        outside the parent's candidate mask."""
        store = ExampleStore(ds.pos, ds.neg)
        parent, child = parse_clause(PARENT), parse_clause(CHILD)
        store.evaluate(engine, parent)
        pc, nc = cand_masks(engine, parent, ds.pos, ds.neg)
        seen: list = []
        orig = store_mod.coverage_eval

        def spy(eng, rule, examples, candidates=None):
            seen.append(candidates)
            return orig(eng, rule, examples, candidates)

        monkeypatch.setattr(store_mod, "coverage_eval", spy)
        assert keyed_under(child, parent)
        store.evaluate(engine, child)
        cand_p, cand_n = seen
        assert cand_p is not None and cand_p & ~pc == 0
        assert cand_n is not None and cand_n & ~nc == 0

    def test_killed_examples_not_retested_but_results_exact(self, ds, engine):
        store = ExampleStore(ds.pos, ds.neg)
        parent, child = parse_clause(PARENT), parse_clause(CHILD)
        cs = store.evaluate(engine, parent)
        first = cs.pos_bits & -cs.pos_bits
        store.kill(first)
        assert keyed_under(child, parent)
        cs2 = store.evaluate(engine, child)
        assert cs2.pos_bits & first == 0  # dead bit masked out
        fresh = ExampleStore(ds.pos, ds.neg)
        full = fresh.evaluate(engine, child)
        assert cs2.pos_bits == full.pos_bits & store.alive
        assert cs2.neg_bits == full.neg_bits

    def test_exhausted_examples_stay_candidates(self):
        """An example the parent failed on *only because the budget ran
        out* must remain in the child's candidate set."""
        kb = KnowledgeBase()
        kb.add_program(" ".join(f"e(c, x{i})." for i in range(60)) + " e(c, hit). w(hit). g(c).")
        engine = Engine(kb, QueryBudget(max_depth=6, max_ops=40))
        examples = [parse_term("t(c)")]
        parent = parse_clause("t(X) :- e(X, Y), w(Y).")
        bits, exh = coverage_eval(engine, parent, examples)
        assert bits == 0 and exh == 1  # ran out before reaching 'hit'
        pc, _ = cand_masks(engine, parent, examples, [])
        assert pc == 1  # exhausted example still a candidate for children


class TestLivenessRestoration:
    def test_parent_scope_respected_after_restore(self):
        """A structurally-derived parent cached with a *shrunken* scope
        must not prune restored examples it was never tested on."""
        kb = KnowledgeBase()
        kb.add_program("q(a). q(b). r(a). r(b).")
        examples = [parse_term("p(a)"), parse_term("p(b)")]
        engine = Engine(kb)
        store = ExampleStore(examples, [])
        store.kill(0b01)  # example 0 covered by an earlier rule
        parent = parse_clause("p(X) :- q(X).")
        store.evaluate(engine, parent)  # scope = 0b10 only
        store.alive = 0b11  # liveness restored (independent baseline)
        child = parse_clause("p(X) :- q(X), r(X).")
        assert keyed_under(child, parent)
        cs = store.evaluate(engine, child)  # finds `parent` by key prefix
        assert cs.pos_bits == 0b11
        assert cs.pos == 2

    def test_top_up_after_alive_restore(self, ds, engine):
        """The independent baseline restores liveness after its local run;
        cached entries must top themselves up to stay exact."""
        store = ExampleStore(ds.pos, ds.neg)
        child = parse_clause(CHILD)
        cs = store.evaluate(engine, child)
        store.kill(cs.pos_bits)
        other = parse_clause(GRANDCHILD)
        partial = store.evaluate(engine, other)  # evaluated on survivors only
        assert partial.pos_bits & cs.pos_bits == 0
        store.alive = (1 << store.n_pos) - 1  # restore, as IndependentWorker does
        topped = store.evaluate(engine, other)
        fresh = ExampleStore(ds.pos, ds.neg).evaluate(engine, other)
        assert topped.pos_bits == fresh.pos_bits
        assert topped.pos == fresh.pos


class TestWorkerRoundTrip:
    def test_rule_without_lineage_costs_what_its_passed_parent_costs(self, ds):
        """A bag rule decoded off the wire has a from-scratch key; its
        prefix finds the parent (body minus the last literal) cached, as
        the key a refinement extends from its parent's does: the same
        bits and the same engine ops as the rule refined locally."""
        parent = parse_clause("eastbound(A) :- has_car(A, B), short(B).")
        child = parent.with_extra_literal(parse_term("closed(B)"))
        request = wire.decode(wire.encode_always(EvaluateRequest(rules=(child,))))
        (shipped,) = request.rules
        assert shipped == child and keyed_under(shipped, parent) and keyed_under(child, parent)

        def evaluate(rule, warm=True):
            engine = Engine(ds.kb, ds.config.engine_budget())
            store = ExampleStore(ds.pos, ds.neg)
            if warm:
                store.evaluate(engine, parent)
            ops = engine.total_ops
            stats = store.evaluate(engine, rule)
            return stats, engine.total_ops - ops

        derived, derived_ops = evaluate(shipped)
        passed, passed_ops = evaluate(child)
        assert derived == passed
        assert derived_ops == passed_ops
        # ... and the derived lineage did narrow: a cold store pays more.
        cold, cold_ops = evaluate(shipped, warm=False)
        assert cold == derived
        assert derived_ops < cold_ops
