"""The seed's recursive SLD interpreter, kept as data.

``tests/data/engine_witness.json`` holds what the recursive interpreter
(``Engine(kernel="legacy")``: recursive resolution, first-argument
indexing, no memo) answered, next to what the default engine answered
with its memo table off and on:

* ``battery`` — each ``test_engine_machine.QUERIES`` query over
  ``PROGRAM_BATTERY`` at ``BATTERY_BUDGET``, and ``exhaustion`` — the
  queries of ``test_engine_machine.EXHAUSTION`` at the budgets they run
  out of: ``[solutions, total_ops, last_exhausted]`` per engine;
* ``bitsets`` — ``[covered, exhausted]`` of every
  ``test_coverage_kernel_parity`` bitset case;
* ``runs`` — theory, epochs, uncovered and epoch log of every
  ``test_coverage_kernel_parity.RUNS`` learner run.

It was written at commit 374c001 — the last one with the recursive
interpreter in the tree, whose version of this module had the writer — by

    git checkout 374c001 && PYTHONPATH=src python tests/logic/test_engine_witness.py > tests/data/engine_witness.json

Same rules as ``docs/golden-runs.md``: the ``recursive`` rows are never
regenerated; a change that means to move one of the other rows says so.
"""

import pytest
from naive_sld import Prover
from test_engine_machine import EXHAUSTION, PROGRAM_BATTERY, QUERIES, show

from repro.logic.parser import parse_program, parse_term


def test_witness_names_the_commit_that_wrote_it(engine_witness):
    provenance = engine_witness.provenance
    assert provenance["commit"].startswith("e48a2c9")
    assert provenance["command"].endswith("> tests/data/engine_witness.json")


def test_witness_has_a_row_for_every_case(engine_witness):
    assert list(engine_witness.battery) == QUERIES
    assert list(engine_witness.exhaustion) == list(EXHAUSTION)
    for row in [*engine_witness.battery.values(), *engine_witness.exhaustion.values()]:
        assert set(row) == {"recursive", "memo_off", "memo_on"}
    assert engine_witness.bitsets and engine_witness.runs


def test_the_exhaustion_rows_run_out(engine_witness):
    """Guards the witness itself: a budget that is never hit pins nothing."""
    for row in engine_witness.exhaustion.values():
        assert all(exhausted for _, _, exhausted in row.values())


@pytest.mark.parametrize("query", QUERIES)
def test_recorded_recursive_answers_are_the_oracles(query, engine_witness):
    """The recursive rows are right, not merely old: the naive evaluator
    finds the same solutions in the same order."""
    program = [(c.head, c.body) for c in parse_program(PROGRAM_BATTERY)]
    oracle = Prover(program, max_depth=6)
    sols, _, exhausted = engine_witness.battery[query]["recursive"]
    assert not exhausted
    assert sols == [show(s) for s in oracle.solutions(parse_term(query))]
