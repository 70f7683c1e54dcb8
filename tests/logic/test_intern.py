"""Hash-consing tests: interning identity, ground flags, pickling, and
the structural fallback terms take past the intern-table cap."""

import os
import pickle
import subprocess
import sys

from repro.logic.parser import parse_clause, parse_term
from repro.logic.terms import (
    Const,
    Struct,
    Var,
    atom,
    is_ground,
    mk_term,
)


class TestConstInterning:
    def test_equal_consts_are_identical(self):
        assert Const("ethyl") is Const("ethyl")
        assert Const(7) is Const(7)
        assert Const(2.5) is Const(2.5)

    def test_numeric_types_stay_distinct(self):
        assert Const(1) is not Const(1.0)
        assert Const(1) != Const(1.0)
        assert Const(True) is not Const(1)
        assert Const(True) != Const(1)

    def test_no_type_rederivation_per_compare(self):
        # The (type, value) key is built once at construction; equality
        # between distinct constants is a single tuple compare at most.
        a, b = Const(1), Const(2)
        assert a._key == (int, 1) and b._key == (int, 2)
        assert a != b

    def test_pickle_reinterns(self):
        c = Const("benzene")
        assert pickle.loads(pickle.dumps(c)) is c


class TestStructInterning:
    def test_ground_structs_are_identical(self):
        assert parse_term("bond(m1, a1, a2, 7)") is parse_term("bond(m1, a1, a2, 7)")
        assert atom("f", atom("g", "x")) is atom("f", atom("g", "x"))

    def test_var_structs_are_not_interned_but_equal(self):
        s, t = parse_term("p(X, a)"), parse_term("p(X, a)")
        assert s == t
        assert not s.interned and not t.interned

    def test_ground_flag(self):
        assert parse_term("f(a, g(b))").ground
        assert not parse_term("f(a, g(X))").ground
        assert is_ground(parse_term("f(a)"))
        assert not is_ground(Var("X"))

    def test_interned_implies_ground(self):
        t = parse_term("f(a, X)")
        for sub in (t, *t.args):
            if isinstance(sub, Struct) and sub.interned:
                assert sub.ground

    def test_pickle_reinterns_ground(self):
        t = parse_term("bond(m1, a1, a2, 7)")
        assert pickle.loads(pickle.dumps(t)) is t

    def test_pickle_var_struct_round_trip(self):
        t = parse_term("p(X, f(a, Y))")
        u = pickle.loads(pickle.dumps(t))
        assert u == t and hash(u) == hash(t)

    def test_nested_sharing(self):
        inner = parse_term("g(a, b)")
        outer = parse_term("f(g(a, b), c)")
        assert outer.args[0] is inner


class TestClauseIdentityPaths:
    def test_clause_equality_uses_shared_subterms(self):
        c1 = parse_clause("p(X) :- q(X, a), r(b).")
        c2 = parse_clause("p(X) :- q(X, a), r(b).")
        assert c1 == c2 and hash(c1) == hash(c2)
        # the ground literal is one shared object
        assert c1.body[1] is c2.body[1]


def test_intern_disabled_subprocess():
    """With the intern tables capped at zero nothing is interned: every
    equality degrades to the structural comparison, same semantics."""
    prog = (
        "from repro.logic import terms\n"
        "terms._CONST_CAP = terms._STRUCT_CAP = 0\n"
        "before = terms.intern_stats()\n"
        "from repro.logic.terms import Const\n"
        "from repro.logic.parser import parse_term\n"
        "assert Const('a') is not Const('a')\n"
        "assert Const('a') == Const('a') and hash(Const('a')) == hash(Const('a'))\n"
        "assert Const(1) != Const(1.0)\n"
        "s, t = parse_term('f(a, g(b))'), parse_term('f(a, g(b))')\n"
        "assert s is not t\n"
        "assert s == t and hash(s) == hash(t) and s.ground\n"
        "assert not s.interned\n"
        "assert terms.intern_stats() == before\n"
        "print('ok')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    out = subprocess.run([sys.executable, "-c", prog], capture_output=True, text=True, env=env, cwd=root)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


class TestMembershipTestsInternNothing:
    """A fully bound goal that is not a fact must not leave a term behind:
    the engine only wants ``in fact_set``, and whatever it builds to ask is
    interned for the life of the process (a server would creep toward
    ``_STRUCT_CAP``, where interning silently stops)."""

    N = 40  # N * (N - 1) = 1560 failing fully-bound goals per query

    def _kb(self):
        from repro.logic import KnowledgeBase

        kb = KnowledgeBase()
        kb.add_program(" ".join(f"num({i}). pair({i}, {i}). linked({i}, {i})." for i in range(self.N)))
        kb.add_program("linked(X, Y) :- pair(Y, X).")
        return kb

    def _run(self, query: str, solutions: int, **engine_kw) -> None:
        from repro.logic import Engine
        from repro.logic.terms import intern_stats

        eng = Engine(self._kb(), **engine_kw)
        goals = tuple(parse_clause(f"q :- {query}.").body)
        before = intern_stats()
        assert sum(1 for _ in eng.solve(goals)) == solutions
        assert intern_stats() == before

    def test_fact_only_predicate_substituted_goal(self):
        # ``changed`` route of the ground fast path: pair(X, Y) with both
        # variables bound by the two generators.
        self._run("num(X), num(Y), pair(X, Y)", self.N)

    def test_predicate_with_rules_takes_the_index(self):
        # ``candidates_bound`` route: linked/2 has a rule, so a fully
        # bound goal asks the fact store for candidates instead (and the
        # diagonal is proved twice, by the fact and by the rule).
        self._run("num(X), num(Y), linked(X, Y)", 2 * self.N, memo=False)

    def test_a_learning_run_leaves_no_terms_behind(self):
        # ~40 % of a carcinogenesis run's engine ops are such membership
        # tests; the seed is one no other test uses, so nothing here is
        # already interned by an earlier run in this process.
        from repro.datasets import make_dataset
        from repro.ilp import mdie
        from repro.logic.terms import intern_stats

        ds = make_dataset("carcinogenesis", seed=19)
        before = intern_stats()
        mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=0)
        assert intern_stats() == before
