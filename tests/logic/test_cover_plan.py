"""Coverage plans against the SLD machine, and both against an oracle.

Two generated-case properties and the fixed cases around them:

* **plan loop == machine loop**, in everything a caller can observe —
  covered bits, exhausted bits, the ops charged to the engine and
  ``last_exhausted`` — over random ground-fact KBs, flat clauses, example
  lists, candidate masks and op budgets from "trips on the first op" to
  "never trips" (``repro.logic.cover_plan``'s promise: same buckets, same
  order, same charges);
* **plan, machine, ``ExampleStore.evaluate`` and the query tier == a naive
  evaluator** (``naive_sld.py``: no engine, no ``unify``, no
  ``KnowledgeBase``) in covered bits at a budget that does not bind, over
  programs that also have rule-defined and negated literals — the first
  half of ROADMAP item 3.

A third property feeds the compiler hostile constants and predicate names
(quotes, newlines, ``__import__('os')``, non-ASCII, ints, floats): the
loops still agree, and every generated source is integers and fixed
identifiers only.

Clauses outside the eligible class must compile to "no plan" and still be
answered by ``coverage_eval``; a clause's plan is kept in its KB's table,
follows that KB, is compiled once for every engine over it and is shared
per shape.  The CI ``tests`` job re-runs this module
under the ``cover-plan-ci`` profile (``conftest.py``) with a random seed;
a shrunk failure is committed as a ``.pl`` fixture under ``tests/data``.
"""

import gc
import itertools
import pathlib
import pickle
import re
import threading
import weakref

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings
from hypothesis import strategies as st

from naive_sld import Prover

from repro.ilp import coverage
from repro.ilp.config import ILPConfig
from repro.ilp.coverage import _machine_loop, _plan_loop, coverage_eval, theory_covered_bits
from repro.ilp.store import ExampleStore
from repro.logic import cover_plan, engine as engine_module
from repro.logic.clause import Clause, Theory
from repro.logic.cover_plan import compile_plan
from repro.logic.engine import Engine, QueryBudget
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_clause, parse_program, parse_term
from repro.logic.terms import Const, Struct, Var
from repro.service.query import QueryEngine

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
BUDGETS = (1, 2, 3, 5, 8, 13, 50, 200_000)
DOMAIN = [Const(f"c{i}") for i in range(5)]
VARS = [Var(n) for n in "ABCD"]

#: constants and predicate names that must never reach generated source
HOSTILE = [Const(v) for v in ("'", '"', "a\nb", "__import__('os')", "é", "日本", "s0", 1, 2.5, -3)]
HOSTILE_NAMES = ["p'0", 'p"1', "p\n2", "__import__('os')", "ñ"]


def arguments(domain):
    """Clause arguments: mostly variables, so that bodies join and heads match."""
    return st.sampled_from(VARS * 3 + domain)


@st.composite
def fact_kbs(draw, domain=DOMAIN, names=None):
    """2-5 predicates of arity 1-3 over a five-constant domain; the last
    one has no facts.  Returns ``(signature, facts)``."""
    arities = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    signature = [(names[i % len(names)] + str(i) if names else f"p{i}", n) for i, n in enumerate(arities)]
    facts = []
    for name, n in signature[:-1]:
        rows = draw(st.lists(st.tuples(*[st.sampled_from(domain)] * n), min_size=3, max_size=12))
        facts.extend(Struct(name, row) for row in rows)
    return signature, facts


def literals(signature, domain=DOMAIN):
    return st.sampled_from(signature).flatmap(
        lambda sig: st.tuples(*[arguments(domain)] * sig[1]).map(lambda args: Struct(sig[0], args))
    )


@st.composite
def flat_problems(draw, max_body=4, ground_only=False, domain=DOMAIN, names=None):
    """A fact KB, a flat clause for ``t/n`` (head constants, repeated head
    variables, variables repeated inside one literal, body variables the
    head does not have, empty bodies, a predicate nobody defined) and a list
    of examples — mostly ``t/n`` over the domain, now and then another
    functor, another arity or (unless ``ground_only``) a variable."""
    signature, facts = draw(fact_kbs(domain, names))
    n = draw(st.integers(1, 3))
    head = Struct("t", draw(st.tuples(*[arguments(domain)] * n)))
    size = draw(st.integers(0, max_body))  # drawn first: st.lists alone is empty half the time
    literal = literals(signature[:-1] * 3 + [signature[-1], ("undefined", 2)], domain)
    body = draw(st.lists(literal, min_size=size, max_size=size))
    odd = [Struct("u", (domain[0],)), Struct("t", tuple(domain[:4])), domain[1]]
    if not ground_only:
        odd += [Struct("t", (VARS[0],) * n), VARS[1]]
    matching = st.tuples(*[st.sampled_from(domain)] * n).map(lambda args: Struct("t", args))
    examples = draw(st.lists(st.one_of(matching, matching, matching, st.sampled_from(odd)), min_size=1, max_size=8))
    return facts, Clause(head, body), examples


def make_kb(facts, rules=()):
    kb = KnowledgeBase()
    for fact in facts:
        kb.add_fact(fact)
    for rule in rules:
        kb.add_rule(rule)
    return kb


def observed(loop, engine, last_exhausted, *args):
    """What a caller of a coverage loop can see of one call."""
    engine.last_exhausted = last_exhausted
    bits, exh = loop(engine, *args)
    return bits, exh, engine.total_ops, engine.last_exhausted


def assert_loops_agree(kb, rule, examples, candidates, stale_exhausted=False):
    """Plan loop == machine loop at every budget; returns what was seen."""
    seen = set()
    for max_ops in BUDGETS:
        budget = QueryBudget(max_depth=4, max_ops=max_ops)
        machine, planned = Engine(kb, budget), Engine(kb, budget)
        plan = compile_plan(planned, rule)
        assert plan is not None, f"flat clause not compiled: {rule}"
        want = observed(_machine_loop, machine, stale_exhausted, rule, examples, candidates)
        got = observed(_plan_loop, planned, stale_exhausted, plan, rule, examples, candidates)
        assert got == want, f"max_ops={max_ops}  {rule}  examples={[str(e) for e in examples]}"
        # the front door takes the plan and says the same
        assert coverage_eval(Engine(kb, budget), rule, examples, candidates) == want[:2]
        seen.add((bool(want[0]), bool(want[1])))
    return seen


@given(flat_problems(), st.one_of(st.none(), st.integers(0, (1 << 10) - 1)), st.booleans())
@settings(deadline=None)
def test_plan_loop_equals_machine_loop(problem, candidates, stale_exhausted):
    facts, rule, examples = problem
    seen = assert_loops_agree(make_kb(facts), rule, examples, candidates, stale_exhausted)
    event(f"some budget ran out={any(exh for _, exh in seen)}")
    event(f"some example covered={any(bits for bits, _ in seen)}")


#: every name a generated plan may use: fixed identifiers, ``s<slot>``
#: and ``c<step>``; and every character its source may contain
IDENTIFIERS = set(
    "def factory ind run engine example if indicator return a args budget max_ops "
    "ops for f in get g continue not total_ops last_exhausted True False".split()
)
SOURCE_CHARS = re.compile(r"[A-Za-z0-9_ \n(),.:=!+>\[\]]*", re.ASCII)


def assert_sources_safe():
    for shape in list(cover_plan._FACTORIES):
        source = cover_plan._source(shape)
        assert SOURCE_CHARS.fullmatch(source), source
        names = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", source))
        assert all(n in IDENTIFIERS or re.fullmatch(r"[sc][0-9]+", n) for n in names), names - IDENTIFIERS


@given(
    flat_problems(domain=HOSTILE, names=HOSTILE_NAMES),
    st.one_of(st.none(), st.integers(0, (1 << 10) - 1)),
)
@settings(deadline=None)
def test_hostile_constants_never_reach_generated_source(problem, candidates):
    facts, rule, examples = problem
    assert_loops_agree(make_kb(facts), rule, examples, candidates)
    assert_sources_safe()


def witness_cases():
    kb, rules = KnowledgeBase(), []
    for clause in parse_program((DATA / "cover_plan_cases.pl").read_text()):
        if clause.indicator[0] == "t":
            rules.append(clause)
        else:
            kb.add_clause(clause)
    return kb, rules


WITNESS_KB, WITNESS_RULES = witness_cases()


@pytest.mark.parametrize("rule", WITNESS_RULES, ids=str)
def test_witness_cases(rule):
    n = rule.indicator[1]
    examples = [Struct("t", args) for args in itertools.product(DOMAIN[:4], repeat=n)]
    assert_loops_agree(WITNESS_KB, rule, examples, None)
    assert_loops_agree(WITNESS_KB, rule, examples, 0b1010_0110_0101)


def test_small_budgets_run_out_on_the_witness_cases():
    examples = [Struct("t", (c,)) for c in DOMAIN[:4]]
    ran_out = [
        r for r in WITNESS_RULES
        if any(exh for _, exh in assert_loops_agree(WITNESS_KB, r, examples, None))
    ]
    assert len(ran_out) >= 10, [str(r) for r in ran_out]


@given(flat_problems(max_body=3, ground_only=True), st.data())
@settings(deadline=None)
def test_every_evaluator_agrees_with_the_naive_oracle(problem, data):
    facts, rule, examples = problem
    # Beyond the plan's class: a rule-defined predicate over the facts, and
    # negated literals, so the machine side of the pick is checked as well.
    defined = [f.indicator for f in facts]
    rules = []
    if defined and data.draw(st.booleans(), label="rule-defined literal"):
        name, n = data.draw(st.sampled_from(defined))
        r_body = data.draw(st.lists(literals(defined), min_size=1, max_size=2))
        rules.append(Clause(Struct("r", tuple(VARS[:n])), [Struct(name, tuple(VARS[:n]))] + r_body))
        rule = Clause(rule.head, rule.body + (Struct("r", data.draw(st.tuples(*[arguments(DOMAIN)] * n))),))
    if rule.body and data.draw(st.booleans(), label="negate last literal"):
        rule = Clause(rule.head, rule.body[:-1] + (Struct("\\+", (rule.body[-1],)),))
    kb = make_kb(facts, rules)
    oracle = Prover([(f, ()) for f in facts] + [(r.head, r.body) for r in rules])
    want = oracle.covered_bits([(rule.head, rule.body)], examples)

    config = ILPConfig()
    assert config.engine_max_ops >= 100_000  # does not bind on these sizes
    engine = config.make_engine(kb)
    assert _machine_loop(engine, rule, examples, None) == (want, 0)
    plan = compile_plan(engine, rule)
    assert (plan is None) == bool(rules or any(b.functor == "\\+" for b in rule.body))
    if plan is not None:
        assert _plan_loop(engine, plan, rule, examples, None) == (want, 0)
    assert ExampleStore(examples, []).evaluate(engine, rule).pos_bits == want
    prepared = QueryEngine.prepare_theory(Theory([rule]), kb, config)
    assert theory_covered_bits(prepared.engine, tuple(prepared.theory), examples) == want


#: a chain of ``e/2`` literals, each scanning its bucket: one loop apiece
def chain(n):
    body = ", ".join(f"e(Y{k}, Y{k + 1})" for k in range(n))
    return f"t(Y0) :- {body}."


INELIGIBLE = {
    "builtin": "t(X) :- size(X, N), N > 2.",
    "negation": "t(X) :- e(X, Y), \\+ f(Y).",
    "rule-defined predicate": "t(X) :- linked(X, c1).",
    "nested struct": "t(X) :- boxed(box(X)).",
    "nested struct in the head": "t(box(X)) :- f(X).",
    "0-arity goal": "t(X) :- f(X), raining.",
    "0-arity head": "go :- f(c3).",
    "more nested loops than Python compiles": chain(cover_plan._MAX_LOOPS + 1),
}

PROGRAM = """
    e(c1, c2). e(c2, c3). e(c3, c1). e(c4, c5).
    f(c3). f(c5). raining.
    size(c1, 3). size(c2, 1). size(c3, 5). size(c4, 2). size(c5, 4).
    boxed(box(c2)). boxed(box(c4)).
    linked(X, Y) :- e(X, Y).
    linked(X, Z) :- e(X, Y), linked(Y, Z).
"""
EXAMPLES = [parse_term(f"t(c{i})") for i in range(1, 6)]


@pytest.fixture
def program_kb():
    kb = KnowledgeBase()
    kb.add_program(PROGRAM)
    return kb


@pytest.mark.parametrize("why", INELIGIBLE)
def test_ineligible_clause_compiles_to_no_plan_and_is_still_answered(program_kb, why):
    rule = parse_clause(INELIGIBLE[why])
    examples = EXAMPLES + [parse_term("go"), parse_term("t(box(c3))")]
    engine = Engine(program_kb, QueryBudget(max_depth=8, max_ops=10_000))
    assert compile_plan(engine, rule) is None
    got = coverage_eval(engine, rule, examples)
    assert got == _machine_loop(Engine(program_kb, engine.budget), rule, examples, None)
    assert got[0], "every ineligible case here covers something"


def test_as_many_nested_loops_as_python_compiles_is_a_plan(program_kb):
    rule = parse_clause(chain(cover_plan._MAX_LOOPS))
    assert compile_plan(Engine(program_kb), rule) is not None
    assert assert_loops_agree(program_kb, rule, EXAMPLES, None) >= {(True, False)}


def test_a_plan_reads_the_live_indexes(program_kb):
    """Through ``coverage_eval`` on one engine: the plan is kept across
    calls, and a fact added after the first call is seen — the plan holds
    the store's own index dicts, which ``FactStore.add`` updates in place."""
    engine = Engine(program_kb)
    rule = parse_clause("t(X) :- e(X, Y), f(Y).")
    examples = [parse_term("t(c1)")]
    assert coverage_eval(engine, rule, examples) == (0, 0)
    plan = engine._plans[rule][1]
    assert coverage_eval(engine, rule, examples) == (0, 0)
    assert engine._plans[rule][1] is plan
    program_kb.add_fact(parse_term("f(c2)"))
    assert coverage_eval(engine, rule, examples) == (1, 0)
    assert _plan_loop(engine, plan, rule, examples, None) == (1, 0)


def test_a_rule_added_later_makes_the_clause_ineligible(program_kb):
    """Through ``coverage_eval`` on one engine: a rule for a body predicate
    sends the kept clause to the machine."""
    engine = Engine(program_kb)
    rule = parse_clause("t(X) :- e(X, Y), f(Y).")
    examples = [parse_term("t(c1)")]
    assert coverage_eval(engine, rule, examples) == (0, 0)
    assert engine._plans[rule][1] is not None
    program_kb.add_clause(parse_clause("f(X) :- size(X, 1)."))
    assert coverage_eval(engine, rule, examples) == (1, 0)
    assert engine._plans[rule] == (program_kb.version, None)


def test_clauses_differing_only_in_constants_share_one_factory(program_kb):
    engine = Engine(program_kb)
    rules = [parse_clause(f"t(X) :- e(X, Y), size(Y, {n}).") for n in (1, 5)]
    for rule in rules:
        assert coverage_eval(engine, rule, EXAMPLES) == _machine_loop(Engine(program_kb), rule, EXAMPLES, None)
    first, second = (engine._plans[rule][1] for rule in rules)
    assert first is not second and first.__code__ is second.__code__


def test_threads_building_one_new_shape_publish_one_factory(program_kb, monkeypatch):
    """Both threads find the shape missing and compile it; ``setdefault``
    hands both the factory that was published first."""
    monkeypatch.setattr(cover_plan, "_FACTORIES", {})
    arrived = threading.Barrier(2, timeout=30)
    build = cover_plan._build
    built = []

    def build_together(shape):
        factory = build(shape)
        built.append(factory)
        arrived.wait()
        return factory

    monkeypatch.setattr(cover_plan, "_build", build_together)
    rule = parse_clause("t(X) :- e(X, Y), e(Y, Z), f(Z).")
    engines = [Engine(program_kb), Engine(program_kb)]
    answers = [None, None]

    def evaluate(i):
        answers[i] = coverage_eval(engines[i], rule, EXAMPLES)

    threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == 2 and len(cover_plan._FACTORIES) == 1
    first, second = (engine._plans[rule][1] for engine in engines)
    assert first.__code__ is second.__code__
    assert answers[0] == answers[1] == _machine_loop(Engine(program_kb), rule, EXAMPLES, None)


def test_an_engine_pickles_without_its_plans(program_kb):
    """A ``spawn`` worker pickles its engine: the copy drops the compiled
    plans (closures) and recompiles them to the same answers and charges."""
    engine = Engine(program_kb, QueryBudget(max_depth=8, max_ops=3))
    rule = parse_clause("t(X) :- e(X, Y), e(Y, Z), e(Z, W), f(W).")
    first = coverage_eval(engine, rule, EXAMPLES)
    assert first[1], "the budget binds on some example"
    assert engine._plans[rule][1] is not None
    copy = pickle.loads(pickle.dumps(engine))
    assert copy._plans == {} and copy.total_ops == engine.total_ops
    assert coverage_eval(copy, rule, EXAMPLES) == coverage_eval(engine, rule, EXAMPLES) == first
    assert copy.total_ops == engine.total_ops and copy.last_exhausted == engine.last_exhausted


@pytest.fixture
def compiled(monkeypatch):
    """``(weakref to the KB, clause)`` of each plan ``coverage_eval``
    compiles, in call order; the KB is held weakly so it can still die."""
    calls = []

    def counting(engine, clause):
        calls.append((weakref.ref(engine.kb), clause))
        return compile_plan(engine, clause)

    monkeypatch.setattr(coverage, "compile_plan", counting)
    return calls


SHARED_RULE = "t(X) :- e(X, Y), e(Y, Z), f(Z)."


def test_engines_over_one_kb_compile_a_clause_once(program_kb, compiled):
    """Two engines with different budgets share the KB's plan; each is
    charged what the machine would charge it."""
    rule = parse_clause(SHARED_RULE)
    budgets = (QueryBudget(max_depth=8, max_ops=200_000), QueryBudget(max_depth=8, max_ops=3))
    engines = [Engine(program_kb, budget) for budget in budgets]
    for engine in engines + engines:
        want = observed(_machine_loop, Engine(program_kb, engine.budget), False, rule, EXAMPLES, None)
        ops = engine.total_ops
        got = coverage_eval(engine, rule, EXAMPLES)
        assert got + (engine.total_ops - ops, engine.last_exhausted) == want
    assert [clause for _, clause in compiled] == [rule]
    assert engines[0]._plans is engines[1]._plans


def test_two_kbs_never_share_a_plan(program_kb, compiled):
    """Not KBs with equal facts: a fact added to one is seen through that
    one alone."""
    rule = parse_clause("t(X) :- e(X, Y), f(Y).")
    twins = [KnowledgeBase(), KnowledgeBase()]
    for twin in twins:
        twin.add_program(PROGRAM)
    kbs = [program_kb, *twins]
    engines = [Engine(kb) for kb in kbs]
    assert [coverage_eval(engine, rule, EXAMPLES) for engine in engines] == [(0b1010, 0)] * 3
    assert [ref() for ref, _ in compiled] == kbs
    plans = [engine._plans[rule][1] for engine in engines]
    assert len({id(plan) for plan in plans}) == 3
    kbs[2].add_fact(parse_term("f(c2)"))
    got = [coverage_eval(Engine(kb), rule, EXAMPLES) for kb in kbs]
    assert got == [(0b1010, 0), (0b1010, 0), (0b1011, 0)]


def test_a_fact_added_through_the_kb_reaches_another_engines_plan(program_kb, compiled):
    rule = parse_clause("t(X) :- e(X, Y), f(Y).")
    first, second = Engine(program_kb), Engine(program_kb)
    examples = [parse_term("t(c1)")]
    assert coverage_eval(first, rule, examples) == (0, 0)
    plan = first._plans[rule][1]
    program_kb.add_fact(parse_term("f(c2)"))
    assert _plan_loop(second, plan, rule, examples, None) == (1, 0)
    assert coverage_eval(second, rule, examples) == coverage_eval(first, rule, examples) == (1, 0)
    assert len(compiled) == 2, "compiled once before the fact, once after, for both engines"


def test_a_rule_added_later_sends_the_clause_to_the_machine_for_every_engine(program_kb, compiled):
    rule = parse_clause("t(X) :- e(X, Y), f(Y).")
    engines = [Engine(program_kb), Engine(program_kb)]
    examples = [parse_term("t(c1)")]
    assert [coverage_eval(engine, rule, examples) for engine in engines] == [(0, 0)] * 2
    program_kb.add_clause(parse_clause("f(X) :- size(X, 1)."))
    for engine in engines:
        assert coverage_eval(engine, rule, examples) == (1, 0)
        assert engine._plans[rule] == (program_kb.version, None)
    assert len(compiled) == 2


def test_a_dropped_kb_drops_its_plan_table(compiled):
    """No plan references its KB, so the weak map lets the table go with
    the KB's last holder."""
    kb = KnowledgeBase()
    kb.add_program(PROGRAM)
    engine = Engine(kb)
    assert coverage_eval(engine, parse_clause(SHARED_RULE), EXAMPLES) == (0b1, 0)
    assert engine._plans and len(compiled) == 1
    tables = len(engine_module._PLAN_TABLES)
    alive = weakref.ref(kb)
    del engine, kb
    gc.collect()
    assert alive() is None and compiled[0][0]() is None
    assert len(engine_module._PLAN_TABLES) == tables - 1


def test_an_unpickled_engine_joins_its_own_kbs_table(program_kb):
    rule = parse_clause(SHARED_RULE)
    engine = Engine(program_kb)
    coverage_eval(engine, rule, EXAMPLES)
    copy = pickle.loads(pickle.dumps(engine))
    assert copy.kb is not program_kb
    assert copy._plans is Engine(copy.kb)._plans is not engine._plans
    assert coverage_eval(copy, rule, EXAMPLES) == coverage_eval(engine, rule, EXAMPLES)
    assert copy._plans[rule][1] is not engine._plans[rule][1]
