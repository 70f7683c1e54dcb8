"""Unit tests for the SLD resolution engine."""

import pytest

from repro.logic.engine import Engine, QueryBudget
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_term
from repro.logic.terms import atom


def make_engine(program: str, **budget) -> Engine:
    kb = KnowledgeBase()
    kb.add_program(program)
    return Engine(kb, QueryBudget(**budget) if budget else None)


class TestFacts:
    def test_ground_hit(self):
        e = make_engine("p(a).")
        assert e.prove(parse_term("p(a)"))

    def test_ground_miss(self):
        e = make_engine("p(a).")
        assert not e.prove(parse_term("p(b)"))

    def test_enumerate(self):
        e = make_engine("p(a). p(b). p(c).")
        sols = [str(s) for s in e.solve(parse_term("p(X)"))]
        assert sols == ["p(a)", "p(b)", "p(c)"]

    def test_limit(self):
        e = make_engine("p(a). p(b). p(c).")
        assert len(list(e.solve(parse_term("p(X)"), limit=2))) == 2

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_yields_nothing(self, limit):
        e = make_engine("p(a). p(b). p(c).")
        assert list(e.solve(parse_term("p(X)"), limit=limit)) == []
        assert (e.total_ops, e.last_exhausted) == (0, False)
        assert [str(s) for s in e.solve(parse_term("p(X)"), limit=1)] == ["p(a)"]
        assert e.total_ops == 1

    def test_conjunction(self):
        e = make_engine("p(a). p(b). q(b).")
        sols = list(e.solve(parse_term("p(X), q(X)")))
        assert len(sols) == 1

    def test_first_arg_binding_uses_index(self):
        e = make_engine("p(a, 1). p(a, 2). p(b, 3).")
        ops0 = e.total_ops
        assert e.prove(parse_term("p(b, X)"))
        assert e.total_ops - ops0 <= 2  # only the b bucket scanned


class TestRules:
    def test_chaining(self):
        e = make_engine("p(a). q(X) :- p(X).")
        assert e.prove(parse_term("q(a)"))

    def test_recursion_with_depth_bound(self):
        e = make_engine(
            "edge(a, b). edge(b, c). edge(c, d)."
            "path(X, Y) :- edge(X, Y)."
            "path(X, Z) :- edge(X, Y), path(Y, Z)."
        )
        assert e.prove(parse_term("path(a, d)"))
        assert not e.prove(parse_term("path(d, a)"))

    def test_depth_bound_blocks_deep_proofs(self):
        e = make_engine(
            "edge(a, b). edge(b, c). edge(c, d). edge(d, f)."
            "path(X, Y) :- edge(X, Y)."
            "path(X, Z) :- edge(X, Y), path(Y, Z).",
            max_depth=2,
            max_ops=100_000,
        )
        assert e.prove(parse_term("path(a, c)"))
        assert not e.prove(parse_term("path(a, f)"))  # needs depth 4

    def test_infinite_left_recursion_terminates(self):
        e = make_engine("loop(X) :- loop(X).", max_depth=16, max_ops=10_000)
        assert not e.prove(parse_term("loop(a)"))


class TestBuiltins:
    def test_true_fail(self):
        e = make_engine("p(a).")
        assert e.prove(parse_term("true"))
        assert not e.prove(parse_term("fail"))

    def test_unify_builtin(self):
        e = make_engine("p(a).")
        assert e.prove(parse_term("X = a, p(X)"))
        assert not e.prove(parse_term("a = b"))

    def test_not_unifiable(self):
        e = make_engine("p(a).")
        assert e.prove(parse_term("a \\= b"))
        assert not e.prove(parse_term("X \\= a"))  # X unifiable with a

    def test_structural_equality(self):
        e = make_engine("p(a).")
        assert e.prove(parse_term("f(a) == f(a)"))
        assert e.prove(parse_term("f(a) \\== f(b)"))

    def test_arith_comparisons(self):
        e = make_engine("p(a).")
        assert e.prove(parse_term("3 < 4"))
        assert e.prove(parse_term("4 >= 4"))
        assert e.prove(parse_term("2 + 2 =< 5"))
        assert not e.prove(parse_term("5 > 2 * 3"))

    def test_is(self):
        e = make_engine("p(a).")
        sols = list(e.solve(parse_term("X is (2 + 4) / 2")))
        assert len(sols) == 1
        assert sols[0].args[0].value == 3.0

    def test_is_with_unbound_rhs_fails(self):
        e = make_engine("p(a).")
        assert not e.prove(parse_term("X is Y + 1"))

    def test_comparison_non_numeric_fails(self):
        e = make_engine("p(a).")
        assert not e.prove(parse_term("a < b"))

    def test_negation_as_failure(self):
        e = make_engine("p(a).")
        assert e.prove(parse_term("\\+ p(b)"))
        assert not e.prove(parse_term("\\+ p(a)"))

    def test_negation_does_not_leak_bindings(self):
        e = make_engine("p(a). q(b).")
        sols = list(e.solve(parse_term("\\+ p(b), q(X)")))
        assert len(sols) == 1

    def test_between_generate(self):
        e = make_engine("p(a).")
        sols = list(e.solve(parse_term("between(1, 3, X)")))
        assert [s.args[2].value for s in sols] == [1, 2, 3]

    def test_between_check(self):
        e = make_engine("p(a).")
        assert e.prove(parse_term("between(1, 5, 3)"))
        assert not e.prove(parse_term("between(1, 5, 9)"))

    def test_dif_const(self):
        e = make_engine("p(a). p(b).")
        sols = list(e.solve(parse_term("p(X), p(Y), dif_const(X, Y)")))
        assert len(sols) == 2


class TestResourceBounds:
    def test_ops_budget_fails_query(self):
        e = make_engine(" ".join(f"p({i})." for i in range(100)), max_depth=5, max_ops=10)
        # counting all solutions needs > 10 ops
        n = len(set(e.solve(parse_term("p(X)"))))
        assert e.last_exhausted
        assert n < 100

    def test_ops_accumulate(self):
        e = make_engine("p(a).")
        before = e.total_ops
        e.prove(parse_term("p(a)"))
        e.prove(parse_term("p(a)"))
        assert e.total_ops > before

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            QueryBudget(max_depth=0)
        with pytest.raises(ValueError):
            QueryBudget(max_ops=0)


class TestSolutions:
    def test_count_distinct(self):
        e = make_engine("p(a). p(a). q(a). q(b).")
        # p(a) stored once (dedup); join yields distinct instances
        assert len(set(e.solve(parse_term("q(X)")))) == 2

    def test_multi_goal_solutions_are_tuples(self):
        e = make_engine("p(a). q(a).")
        sols = list(e.solve([parse_term("p(X)"), parse_term("q(X)")]))
        assert sols == [(parse_term("p(a)"), parse_term("q(a)"))]

    def test_unbound_goal_raises(self):
        e = make_engine("p(a).")
        with pytest.raises(TypeError):
            list(e.solve(parse_term("X")))
