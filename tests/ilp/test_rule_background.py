"""Learning over rule-defined background knowledge: the problem of
``examples/recursive_background.py`` (``ancestor/2`` recursive over
``parent/2``, ``sibling/2`` with the builtin ``\\==``), in process.

No bundled dataset has a rule in its background, so this is the program
path of the engine's rule resolution, its builtins, its ground-goal memo
table and the coverage loop's machine fallback.
"""

import pathlib
import runpy

import pytest

from repro.ilp import accuracy, mdie
from repro.ilp.coverage import coverage_eval
from repro.logic import Engine, parse_clause, parse_term
from repro.logic.cover_plan import compile_plan
from repro.parallel import run_p2mdie

EXAMPLE = pathlib.Path(__file__).resolve().parents[2] / "examples" / "recursive_background.py"
TARGET = "kin(A, B) :- ancestor(A, B)."


@pytest.fixture(scope="module")
def problem():
    return runpy.run_path(str(EXAMPLE))["build_problem"]()


def test_mdie_learns_the_recursive_predicate(problem):
    kb, pos, neg, modes, config = problem
    res = mdie(kb, pos, neg, modes, config, seed=0)
    assert [str(c) for c in res.theory] == [TARGET]
    assert accuracy(Engine(kb, config.engine_budget()), res.theory, pos, neg) == 100.0


@pytest.mark.parametrize("backend", ["sim", "local"])
def test_p2mdie_learns_what_mdie_learns(problem, backend):
    kb, pos, neg, modes, config = problem
    res = run_p2mdie(kb, pos, neg, modes, config, p=2, seed=0, backend=backend)
    assert [str(c) for c in res.theory] == [TARGET]


def test_a_rule_defined_body_has_no_plan(problem):
    """A clause over a rule-defined predicate runs on the SLD machine."""
    kb, _, _, _, config = problem
    engine = Engine(kb, config.engine_budget())
    assert compile_plan(engine, parse_clause(TARGET)) is None
    assert compile_plan(engine, parse_clause("kin(A, B) :- parent(A, B).")) is not None


def test_the_memo_is_engaged_and_changes_no_answer(problem):
    kb, pos, neg, _, config = problem
    rule = parse_clause(TARGET)
    examples = pos + neg
    memo = Engine(kb, config.engine_budget())
    plain = Engine(kb, config.engine_budget(), memo=False)
    assert coverage_eval(memo, rule, examples) == coverage_eval(plain, rule, examples)
    assert memo.memo_hits > 0 and plain.memo_hits == 0
    assert memo.total_ops < plain.total_ops


def test_the_builtin_in_a_background_rule(problem):
    kb, _, _, _, config = problem
    engine = Engine(kb, config.engine_budget())
    assert engine.prove(parse_term("sibling(bob, cee)"))
    assert not engine.prove(parse_term("sibling(bob, bob)"))
