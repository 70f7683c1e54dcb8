"""The SLD machine against the seed's recursive interpreter, and the
ground-goal memo table.

The recursive interpreter's answers to ``PROGRAM_BATTERY`` are rows of
``tests/data/engine_witness.json``.  With the memo off the machine must
reproduce them in order, and its op charges must match its own recorded
rows; the memo table and multi-argument indexing then only reduce the op
count — never the solution sequence.  Random programs are checked against
the naive evaluator in ``naive_sld.py`` instead.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.engine import Engine, QueryBudget
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_program, parse_term
from repro.logic.terms import atom

from naive_sld import Prover

PROGRAM_BATTERY = """
p(a). p(b). p(c).
q(b). q(c).
r(a, 1). r(a, 2). r(b, 3).
edge(a, b). edge(b, c). edge(c, d). edge(d, a).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
big(X) :- r(A, X), X > 1.
double(X, Y) :- r(A, X), Y is X * 2.
distinct(X, Y) :- p(X), p(Y), dif_const(X, Y).
nonq(X) :- p(X), \\+ q(X).
ranged(X) :- between(1, 3, X).
eqtest(X) :- p(X), X = a.
neqtest(X) :- p(X), X \\= a.
loop(X) :- loop(X).
"""

QUERIES = [
    "p(X)",
    "p(a)",
    "p(d)",
    "p(X), q(X)",
    "r(a, X)",
    "r(X, 3)",
    "path(a, d)",
    "path(a, X)",
    "path(X, Y)",
    "path(d, c)",
    "big(X)",
    "double(X, Y)",
    "distinct(X, Y)",
    "nonq(X)",
    "\\+ p(d)",
    "\\+ p(a)",
    "ranged(X)",
    "between(2, 4, 3)",
    "between(2, 4, 9)",
    "eqtest(X)",
    "neqtest(X)",
    "f(a) == f(a)",
    "f(a) \\== f(b)",
    "2 + 2 =< 5",
    "X is 3 * 3",
    "loop(a)",
]


#: Budget of every battery row.
BATTERY_BUDGET = QueryBudget(max_depth=6, max_ops=50_000)

#: Queries the witness records at a budget they exhaust:
#: query -> (program, budget).
EXHAUSTION = {
    "path(X, Y)": (PROGRAM_BATTERY, QueryBudget(max_depth=8, max_ops=37)),
    "m(X)": (" ".join(f"m({i})." for i in range(100)), QueryBudget(max_depth=5, max_ops=10)),
}


def make_kb(program: str = PROGRAM_BATTERY) -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_program(program)
    return kb


def show(solution) -> str:
    """A solution as text: a conjunction's resolved goals in parentheses."""
    if isinstance(solution, tuple):
        return "(" + ", ".join(map(str, solution)) + ")"
    return str(solution)


def run_query(engine: Engine, q: str, limit=None) -> list:
    """``[solutions, total_ops, last_exhausted]``, as witness rows store it."""
    sols = [show(s) for s in engine.solve(parse_term(q), limit=limit)]
    return [sols, engine.total_ops, engine.last_exhausted]


class TestMachineParity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_solutions_order_and_ops_identical(self, query, engine_witness):
        """With the memo off, the machine finds the recursive interpreter's
        solutions in its order, at its own recorded charges."""
        row = engine_witness.battery[query]
        live = run_query(Engine(make_kb(), BATTERY_BUDGET, memo=False), query)
        assert live == row["memo_off"]
        assert live[0] == row["recursive"][0]

    @pytest.mark.parametrize("query", QUERIES)
    def test_new_kernel_same_solutions(self, query, engine_witness):
        """Memo + multi-argument indexing keep the solution sequence; the
        op count may only drop."""
        row = engine_witness.battery[query]
        sols, ops, _ = live = run_query(Engine(make_kb(), BATTERY_BUDGET), query)
        assert live == row["memo_on"]
        assert sols == row["recursive"][0]
        assert ops <= row["recursive"][1]

    @pytest.mark.parametrize("machine", ["recursive", "iterative"])
    def test_budget_exhaustion_matches(self, machine, engine_witness):
        """m(X) over 100 facts within 10 ops: the recursive interpreter ran
        out (its recorded row), and the machine runs out at the point
        recorded for it."""
        row = engine_witness.exhaustion["m(X)"]
        if machine == "recursive":
            sols, _, exhausted = row["recursive"]
        else:
            program, budget = EXHAUSTION["m(X)"]
            sols, _, exhausted = live = run_query(Engine(make_kb(program), budget, memo=False), "m(X)")
            assert live == row["memo_off"]
        assert exhausted
        assert len(set(sols)) < 100

    def test_exhaustion_point_identical(self, engine_witness):
        """Memo off, the machine runs out of ops where the recursive
        interpreter did, with the same solutions found before."""
        program, budget = EXHAUSTION["path(X, Y)"]
        row = engine_witness.exhaustion["path(X, Y)"]
        live = run_query(Engine(make_kb(program), budget, memo=False), "path(X, Y)")
        assert live == row["memo_off"] == row["recursive"]

    def test_unbound_goal_raises(self):
        eng = Engine(make_kb())
        with pytest.raises(TypeError):
            list(eng.solve(parse_term("X")))

    def test_limit_and_prove(self):
        eng = Engine(make_kb())
        assert len(list(eng.solve(parse_term("p(X)"), limit=2))) == 2
        assert eng.prove(parse_term("p(a)"))
        assert not eng.prove(parse_term("p(zzz)"))


@st.composite
def graph_program(draw):
    """A random edge set plus the two path/2 rules, as ``(kb, program)``:
    the same clauses for the engine and the naive evaluator."""
    n = draw(st.integers(2, 6))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=12,
        )
    )
    kb = KnowledgeBase()
    program = []
    for a, b in edges:
        fact = atom("edge", f"n{a}", f"n{b}")
        if kb.add_fact(fact):
            program.append((fact, ()))
    for rule in parse_program("path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z)."):
        kb.add_rule(rule)
        program.append((rule.head, rule.body))
    return kb, program


@given(graph_program())
@settings(deadline=None)
def test_machines_agree_on_random_graphs(problem):
    """The first 150 answers to path(X, Y), memo off and on, are the naive
    evaluator's first 150 in its order (a prefix of them where the engine
    ran out of ops).  No example budget of its own: CI re-runs it under the
    ``cover-plan-ci`` profile."""
    kb, program = problem
    goal = parse_term("path(X, Y)")
    oracle = Prover(program, max_depth=8, max_ops=10_000_000)
    want = [str(s) for s in itertools.islice(oracle.solutions(goal), 150)]
    for memo in (False, True):
        eng = Engine(kb, QueryBudget(max_depth=8, max_ops=30_000), memo=memo)
        got = [str(s) for s in eng.solve(goal, limit=150)]
        assert got == (want[: len(got)] if eng.last_exhausted else want)


class TestMemoTable:
    def prog(self) -> KnowledgeBase:
        # s1..s3 carry a (vacuous) negation so they are *not* memoizable:
        # they expand inline and consume depth exactly like the seed
        # interpreter, which lets the tests below pin the memo's
        # depth-validity guard on g/h.
        kb = KnowledgeBase()
        kb.add_program(
            """
            i(a).
            h(X) :- i(X).
            g(X) :- h(X).
            f1(x). f2(x). f3(x).
            s1 :- f1(x), \\+ absent(x).
            s2 :- f2(x), \\+ absent(x).
            s3 :- f3(x), \\+ absent(x).
            """
        )
        return kb

    def test_memo_hit_and_correctness(self):
        kb = self.prog()
        eng = Engine(kb, QueryBudget(max_depth=6), memo=True)
        assert eng.prove(parse_term("g(a)"))
        assert eng.prove(parse_term("g(a)"))
        assert eng.memo_hits >= 1
        assert not eng.prove(parse_term("g(b)"))

    def test_memo_depth_sensitivity(self):
        """A success recorded with lots of remaining depth must not be
        replayed when the goal reappears with too little depth left — and
        a shallow failure must not shadow a later deep success."""
        kb = self.prog()
        for order in (["g(a)", "s1, s2, s3, g(a)"], ["s1, s2, s3, g(a)", "g(a)"]):
            expected = None
            for memo in (False, True):
                results = []
                eng = Engine(kb, QueryBudget(max_depth=5), memo=memo)
                for q in order:
                    results.append(eng.prove(parse_term(q)))
                if expected is None:
                    expected = results
                else:
                    assert results == expected
        # Tighter budget: g(a) alone fits (2 expansions within depth 3),
        # but after s1..s3 eat the 3 levels g(a) is dispatched at depth 0.
        # The success recorded at depth 3 must not be replayed there, and
        # the failure recorded at depth 0 must not shadow depth-3 retries.
        eng_tight = Engine(kb, QueryBudget(max_depth=3), memo=True)
        assert eng_tight.prove(parse_term("g(a)"))
        assert not eng_tight.prove(parse_term("s1, s2, s3, g(a)"))
        assert eng_tight.prove(parse_term("g(a)"))

    def test_memo_invalidated_on_kb_mutation(self):
        kb = self.prog()
        eng = Engine(kb, memo=True)
        assert not eng.prove(parse_term("g(b)"))
        kb.add_fact(atom("i", "b"))
        assert eng.prove(parse_term("g(b)"))

    def test_negation_closure_not_memoized(self):
        kb = KnowledgeBase()
        kb.add_program("q(a). p(X) :- \\+ q(X). r(X) :- p(X).")
        eng = Engine(kb, memo=True)
        assert not eng.prove(parse_term("r(a)"))
        assert eng.prove(parse_term("r(b)"))
        # negation in the closure makes provability depth-non-monotone
        assert eng._is_memoizable(("r", 1)) is False
        assert eng.memo_misses == 0

    def test_recursive_predicate_memo_safe(self):
        kb = KnowledgeBase()
        kb.add_program(
            "edge(a, b). edge(b, c)."
            "path(X, Y) :- edge(X, Y)."
            "path(X, Z) :- edge(X, Y), path(Y, Z)."
        )
        for memo in (False, True):
            eng = Engine(kb, QueryBudget(max_depth=8), memo=memo)
            assert eng.prove(parse_term("path(a, c)"))
            assert not eng.prove(parse_term("path(c, a)"))
            assert eng.prove(parse_term("path(a, c)"))


class TestMultiArgIndexing:
    def test_second_argument_bound(self):
        kb = KnowledgeBase()
        kb.add_program(" ".join(f"bond(m{i}, a{i % 7}, t)." for i in range(50)))
        eng = Engine(kb)
        ops0 = eng.total_ops
        assert eng.prove(parse_term("bond(X, a3, t)"))
        # selectivity: the a3 bucket holds ~50/7 facts, not 50
        assert eng.total_ops - ops0 <= 9

    def test_composite_index(self):
        kb = KnowledgeBase()
        for i in range(40):
            kb.add_fact(atom("b", f"x{i % 4}", f"y{i}", i % 2))
        eng = Engine(kb)
        ops0 = eng.total_ops
        # both arg 0 and arg 2 bound: only the (x1, 1) facts are offered
        sols = list(eng.solve(parse_term("b(x1, Y, 1)")))
        assert len(sols) == 10  # i % 4 == 1 implies i odd: 1, 5, ..., 37
        assert eng.total_ops - ops0 <= 11

    def test_same_solutions_as_full_scan(self):
        kb = KnowledgeBase()
        for i in range(30):
            kb.add_fact(atom("t", f"p{i % 3}", f"q{i % 5}", f"r{i % 2}"))
        oracle = Prover([(fact, ()) for fact in kb.facts_for(("t", 3))])
        engine = Engine(kb)
        for q in ("t(p1, X, Y)", "t(X, q2, Y)", "t(p0, X, r1)", "t(X, Y, Z)", "t(p1, q1, r1)"):
            goal = parse_term(q)
            assert [str(s) for s in engine.solve(goal)] == [str(s) for s in oracle.solutions(goal)]
