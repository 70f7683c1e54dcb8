"""Unit tests for Clause and Theory."""

import pytest

from repro.logic.clause import Clause, Theory, head_indicator
from repro.logic.parser import parse_clause
from repro.logic.terms import Const, Var, atom
from repro.logic.unify import unify


class TestClause:
    def test_fact(self):
        c = Clause(atom("p", "a"))
        assert c.is_fact
        assert c.body == ()
        assert str(c) == "p(a)."

    def test_nonground_headonly_not_fact(self):
        assert not Clause(atom("p", "X")).is_fact

    def test_str_rule(self):
        c = parse_clause("p(X) :- q(X).")
        assert str(c) == "p(X) :- q(X)."

    def test_equality_and_hash(self):
        a = parse_clause("p(X) :- q(X).")
        b = parse_clause("p(X) :- q(X).")
        assert a == b
        assert len({a, b}) == 1

    def test_indicator(self):
        assert parse_clause("p(a, b).").indicator == ("p", 2)
        assert head_indicator(Const("halt")) == ("halt", 0)

    def test_rename_apart_preserves_sharing(self):
        c = parse_clause("p(X) :- q(X, Y), r(Y).")
        r = c.rename_apart()
        assert r != c
        # head var == first body literal var after renaming
        assert r.head.args[0] == r.body[0].args[0]
        assert r.body[0].args[1] == r.body[1].args[0]
        # and the renamed clause unifies with the original
        assert unify(r.head, c.head) is not None

    def test_with_extra_literal(self):
        c = parse_clause("p(X) :- q(X).")
        c2 = c.with_extra_literal(atom("r", "X"))
        assert c2.body == (atom("q", "X"), atom("r", "X"))
        assert c.body == (atom("q", "X"),)  # original untouched

    def test_lazy_variant_keys_under_racing_threads(self):
        """Threads asking for the keys of one refinement tree, in different
        orders, all get the from-scratch keys and parent prefixes (each
        clause's numbering and prefix length are published before its
        key).  Every thread hands the interpreter over at each line of the
        key code, after checking that each clause it holds there is
        published whole: what another thread would see at that switch."""
        import random
        import sys
        import threading
        import time

        key_code = {Clause.variant_key.__code__, Clause.parent_key_length.__code__}
        torn: list = []

        def switch_each_line(frame, event, arg):
            if frame.f_code not in key_code:
                return None
            if event == "line":
                for name in ("self", "c", "child"):
                    c = frame.f_locals.get(name)
                    if isinstance(c, Clause) and c._vk is not None and None in (c._num, c._plen):
                        torn.append((str(c), frame.f_lineno))
                time.sleep(0)
            return switch_each_line

        lits = [atom("r", "C", "D"), atom("s", "B", "E"), atom("t", "D", "E", "F"), atom("u", "A"), atom("v", "F", "G")]

        def tree() -> list:
            clauses = frontier = [parse_clause("p(A, B) :- q(A, C).")]
            for lit in lits:
                frontier = [c.with_extra_literal(lit) for c in frontier] + frontier
                clauses = clauses + frontier[: len(frontier) // 2]
            return clauses

        fresh = [Clause(c.head, c.body) for c in tree()]
        want = [(c.variant_key(), c.parent_key_length()) for c in fresh]
        errors: list = []
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def ask(seed: int, rounds: list) -> None:
            rng = random.Random(seed)
            sys.settrace(switch_each_line)
            try:
                for clauses in rounds:
                    barrier.wait(timeout=10)
                    order = list(range(len(clauses)))
                    rng.shuffle(order)
                    for i in order:
                        plen = clauses[i].parent_key_length()
                        assert (clauses[i].variant_key(), plen) == want[i]
            except BaseException as e:  # reported by the main thread
                errors.append(e)
                barrier.abort()
            finally:
                sys.settrace(None)

        rounds = [tree() for _ in range(40)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(k, rounds)) for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert torn == []

    def test_head_cannot_be_var(self):
        with pytest.raises(TypeError):
            Clause(Var("X"))


class TestTheory:
    def test_ordering_preserved(self):
        t = Theory()
        a = parse_clause("p(a).")
        b = parse_clause("p(b).")
        t.add(a)
        t.add(b)
        assert list(t) == [a, b]

    def test_len_and_total_literals(self):
        t = Theory([parse_clause("p(X) :- q(X)."), parse_clause("r(a).")])
        assert len(t) == 2
        assert sum(1 + len(c.body) for c in t) == 3

    def test_str(self):
        t = Theory([parse_clause("p(a).")])
        assert str(t) == "p(a)."

    def test_equality(self):
        t1 = Theory([parse_clause("p(a).")])
        t2 = Theory([parse_clause("p(a).")])
        assert t1 == t2
