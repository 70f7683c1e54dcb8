"""Hash-consing tests: interning identity, ground flags, pickling, the
structural fallback structs take past the intern-table cap, and terms
built by racing threads."""

import copy
import gc
import itertools
import os
import pickle
import subprocess
import sys
import threading

from hypothesis import given
from hypothesis import strategies as st

from repro.logic import terms
from repro.logic.parser import parse_clause, parse_term
from repro.logic.terms import (
    Const,
    Struct,
    Var,
    atom,
    is_ground,
    mk_term,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Values no other test builds, so each use starts from an empty table slot.
_fresh = (f"zz_intern_{i}" for i in itertools.count())


def _python(prog: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-c", prog], capture_output=True, text=True, env=env, cwd=ROOT, timeout=300
    )


def _table_sizes() -> tuple[int, int]:
    """Live constants and interned structs (a constant leaves its table
    when its last reference goes)."""
    return len(terms._const_table), len(terms._struct_table)


class TestConstInterning:
    def test_equal_consts_are_identical(self):
        assert Const("ethyl") is Const("ethyl")
        assert Const(7) is Const(7)
        assert Const(2.5) is Const(2.5)

    def test_numeric_types_stay_distinct(self):
        one, one_f, true = Const(1), Const(1.0), Const(True)
        assert one is not one_f and one is not true and one_f is not true
        assert Const(1) != Const(1.0)
        assert Const(True) != Const(1)
        assert Const(1.0) != Const(True)
        assert [type(Const(v).value) for v in (1, 1.0, True)] == [int, float, bool]

    def test_no_type_rederivation_per_compare(self):
        # Equality and hashing are object's C slots: identity, no Python
        # frame per dict probe or comparison.
        assert Const.__eq__ is object.__eq__ and Const.__hash__ is object.__hash__
        a, b = Const(1), Const(2)
        assert a != b and hash(a) == object.__hash__(a)

    def test_pickle_reinterns(self):
        c = Const("benzene")
        assert pickle.loads(pickle.dumps(c)) is c

    def test_copies_are_canonical(self):
        c = Const(next(_fresh))
        assert copy.copy(c) is c and copy.deepcopy(c) is c
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(c, protocol)) is c

    def test_wire_round_trip_is_canonical(self):
        from repro.parallel import wire
        from repro.parallel.messages import MarkCovered

        name = next(_fresh)
        rule = parse_clause(f"p(X) :- q(X, {name}), r(X, 7, 2.5).")
        back = wire.decode(wire.encode_always(MarkCovered(rule=rule))).rule
        assert back == rule
        assert back.body[0].args[1] is Const(name)
        assert back.body[1].args[1] is Const(7) and back.body[1].args[2] is Const(2.5)

    def test_unreferenced_const_leaves_the_table(self):
        value = next(_fresh)
        c = Const(value)
        assert terms._const_table[(str, value)]() is c
        del c
        assert (str, value) not in terms._const_table
        again = Const(value)
        assert again is Const(value)
        assert terms._const_table[(str, value)]() is again

    def test_ground_structs_keep_their_constants(self):
        value = next(_fresh)
        s = atom("holder", value)
        del s
        gc.collect()
        # The struct table is strong, so the constant inside stays canonical.
        assert atom("holder", value).args[0] is Const(value)
        assert terms._const_table[(str, value)]() is not None

    def test_threads_get_one_object_per_value(self):
        values = [next(_fresh) for _ in range(500)] + [10**12 + i for i in range(500)]
        n = 8
        barrier = threading.Barrier(n)
        results = [None] * n

        def build(slot):
            barrier.wait()
            results[slot] = [Const(v) for v in values]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        first = results[0]
        for other in results[1:]:
            assert all(a is b for a, b in zip(first, other, strict=True))
        assert all(c is Const(v) for c, v in zip(first, values))

    @given(
        st.one_of(st.text(), st.integers(), st.floats(allow_nan=False), st.booleans()),
        st.one_of(st.text(), st.integers(), st.floats(allow_nan=False), st.booleans()),
    )
    def test_identity_is_type_and_value(self, a, b):
        ca, cb = Const(a), Const(b)
        assert ca is Const(a) and pickle.loads(pickle.dumps(ca)) is ca
        assert type(ca.value) is type(a) and ca.value == a
        assert (ca is cb) == (type(a) is type(b) and a == b)
        assert (ca == cb) == (ca is cb)


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
    """With the struct table capped at zero no struct is interned: every
    struct equality degrades to the structural comparison, same semantics.
    Constants have no cap; they stay canonical."""
    prog = (
        "from repro.logic import terms\n"
        "terms._STRUCT_CAP = 0\n"
        "before = len(terms._struct_table)\n"
        "from repro.logic.terms import Const\n"
        "from repro.logic.parser import parse_term\n"
        "assert Const('a') is Const('a')\n"
        "assert Const(1) != Const(1.0)\n"
        "s, t = parse_term('f(a, g(b))'), parse_term('f(a, g(b))')\n"
        "assert s is not t\n"
        "assert s == t and hash(s) == hash(t) and s.ground\n"
        "assert not s.interned\n"
        "assert s.args[0] is t.args[0] is Const('a')\n"
        "assert len(terms._struct_table) == before\n"
        "print('ok')\n"
    )
    out = _python(prog)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_concurrent_dataset_builds_share_one_term_subprocess():
    """Two threads building the same dataset at once, switching threads
    every microsecond, never see a half-built term and end up holding the
    same canonical examples and facts."""
    prog = (
        "import sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "from repro.datasets import make_dataset\n"
        "results, errors = [], []\n"
        "def build():\n"
        "    try:\n"
        "        results.append(make_dataset('carcinogenesis', seed=0, scale='paper'))\n"
        "    except BaseException as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=build) for _ in range(2)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join()\n"
        "assert not errors, errors\n"
        "a, b = results\n"
        "assert all(x is y for x, y in zip(a.pos + a.neg, b.pos + b.neg, strict=True))\n"
        "def facts(ds):\n"
        "    return [f for ind in sorted(ds.kb.predicates()) for f in ds.kb.facts_for(ind).facts]\n"
        "assert all(x is y for x, y in zip(facts(a), facts(b), strict=True))\n"
        "print('ok')\n"
    )
    out = _python(prog)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
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
        eng = Engine(self._kb(), **engine_kw)
        goals = tuple(parse_clause(f"q :- {query}.").body)
        before = _table_sizes()
        assert sum(1 for _ in eng.solve(goals)) == solutions
        assert _table_sizes() == before

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
        ds = make_dataset("carcinogenesis", seed=19)
        before = _table_sizes()
        mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=0)
        assert _table_sizes() == before
