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

Clauses outside the eligible class must compile to "no plan" and still be
answered by ``coverage_eval``.  The CI ``tests`` job re-runs this module
under the ``cover-plan-ci`` profile (``conftest.py``) with a random seed;
a shrunk failure is committed as a ``.pl`` fixture under ``tests/data``.
"""

import itertools
import pathlib

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings
from hypothesis import strategies as st

from naive_sld import Prover

from repro.ilp.config import ILPConfig
from repro.ilp.coverage import _machine_loop, _plan_loop, coverage_eval
from repro.ilp.store import ExampleStore
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

constants = st.sampled_from(DOMAIN)
#: clause arguments: mostly variables, so that bodies join and heads match
arguments = st.sampled_from(VARS * 3 + DOMAIN)


@st.composite
def fact_kbs(draw):
    """2-5 predicates of arity 1-3 over a five-constant domain; the last
    one has no facts.  Returns ``(signature, facts)``."""
    arities = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    signature = [(f"p{i}", n) for i, n in enumerate(arities)]
    facts = []
    for name, n in signature[:-1]:
        rows = draw(st.lists(st.tuples(*[constants] * n), min_size=3, max_size=12))
        facts.extend(Struct(name, row) for row in rows)
    return signature, facts


def literals(signature):
    return st.sampled_from(signature).flatmap(
        lambda sig: st.tuples(*[arguments] * sig[1]).map(lambda args: Struct(sig[0], args))
    )


@st.composite
def flat_problems(draw, max_body=4, ground_only=False):
    """A fact KB, a flat clause for ``t/n`` (head constants, repeated head
    variables, variables repeated inside one literal, body variables the
    head does not have, empty bodies, a predicate nobody defined) and a list
    of examples — mostly ``t/n`` over the domain, now and then another
    functor, another arity or (unless ``ground_only``) a variable."""
    signature, facts = draw(fact_kbs())
    n = draw(st.integers(1, 3))
    head = Struct("t", draw(st.tuples(*[arguments] * n)))
    size = draw(st.integers(0, max_body))  # drawn first: st.lists alone is empty half the time
    literal = literals(signature[:-1] * 3 + [signature[-1], ("undefined", 2)])
    body = draw(st.lists(literal, min_size=size, max_size=size))
    odd = [Struct("u", (DOMAIN[0],)), Struct("t", tuple(DOMAIN[:4])), DOMAIN[1]]
    if not ground_only:
        odd += [Struct("t", (VARS[0],) * n), VARS[1]]
    matching = st.tuples(*[constants] * n).map(lambda args: Struct("t", args))
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
        rule = Clause(rule.head, rule.body + (Struct("r", data.draw(st.tuples(*[arguments] * n))),))
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
    assert prepared.query(examples).covered == want


INELIGIBLE = {
    "builtin": "t(X) :- size(X, N), N > 2.",
    "negation": "t(X) :- e(X, Y), \\+ f(Y).",
    "rule-defined predicate": "t(X) :- linked(X, c1).",
    "nested struct": "t(X) :- boxed(box(X)).",
    "nested struct in the head": "t(box(X)) :- f(X).",
    "0-arity goal": "t(X) :- f(X), raining.",
    "0-arity head": "go :- f(c3).",
}

PROGRAM = """
    e(c1, c2). e(c2, c3). e(c3, c1). e(c4, c5).
    f(c3). f(c5). raining.
    size(c1, 3). size(c2, 1). size(c3, 5). size(c4, 2). size(c5, 4).
    boxed(box(c2)). boxed(box(c4)).
    linked(X, Y) :- e(X, Y).
    linked(X, Z) :- e(X, Y), linked(Y, Z).
"""


@pytest.fixture
def program_kb():
    kb = KnowledgeBase()
    kb.add_program(PROGRAM)
    return kb


@pytest.mark.parametrize("why", INELIGIBLE)
def test_ineligible_clause_compiles_to_no_plan_and_is_still_answered(program_kb, why):
    rule = parse_clause(INELIGIBLE[why])
    examples = [parse_term(f"t(c{i})") for i in range(1, 6)] + [parse_term("go"), parse_term("t(box(c3))")]
    engine = Engine(program_kb, QueryBudget(max_depth=8, max_ops=10_000))
    assert compile_plan(engine, rule) is None
    got = coverage_eval(engine, rule, examples)
    assert got == _machine_loop(Engine(program_kb, engine.budget), rule, examples, None)
    assert got[0], "every ineligible case here covers something"


@pytest.mark.parametrize(
    "kwargs", [dict(kernel="legacy"), dict(machine="recursive"), dict(index="first")], ids=str
)
def test_only_the_default_engine_takes_plans(program_kb, kwargs):
    rule = parse_clause("t(X) :- e(X, Y), f(Y).")
    examples = [parse_term(f"t(c{i})") for i in range(1, 6)]
    assert compile_plan(Engine(program_kb), rule) is not None
    other = Engine(program_kb, **kwargs)
    assert compile_plan(other, rule) is None
    assert coverage_eval(other, rule, examples)[0] == coverage_eval(Engine(program_kb), rule, examples)[0] == 0b01010


def test_a_plan_reads_the_live_indexes(program_kb):
    """Facts added after compilation are seen: a plan holds the store's own
    index dicts, which ``FactStore.add`` updates in place."""
    engine = Engine(program_kb)
    rule = parse_clause("t(X) :- e(X, Y), f(Y).")
    plan = compile_plan(engine, rule)
    examples = [parse_term("t(c1)")]
    assert _plan_loop(engine, plan, rule, examples, None) == (0, 0)
    program_kb.add_fact(parse_term("f(c2)"))
    assert _plan_loop(engine, plan, rule, examples, None) == (1, 0)


def test_a_rule_added_later_makes_the_clause_ineligible(program_kb):
    engine = Engine(program_kb)
    rule = parse_clause("t(X) :- e(X, Y), f(Y).")
    assert compile_plan(engine, rule) is not None
    program_kb.add_clause(parse_clause("f(X) :- size(X, 1)."))
    assert compile_plan(engine, rule) is None
    assert coverage_eval(engine, rule, [parse_term("t(c1)")]) == (1, 0)
