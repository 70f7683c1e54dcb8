"""Compiled coverage plans: flat clauses over ground facts as generated
nested-loop Python, without the SLD machine's interpretive overhead and with
every op charge unchanged.

Design note
-----------
*Static boundness.*  Coverage tests a **ground** example against a clause
whose body literals are over **ground facts**.  Matching the head binds
every head variable to a ground term; each body literal that succeeds binds
every variable it mentions to a ground term (a fact's arguments).  So on
entry to literal *k* the set of its argument positions holding a ground
value is a property of the clause, not of the example: it can be computed
once, before any example is seen.  A plan therefore needs

* no substitution dict and no trail — one **slot** per variable and per
  constant, a local of the generated function; a slot is written when its
  literal advances and simply overwritten on the next alternative, so there
  is nothing to undo;
* no per-goal argument walk — each literal's **access path** is chosen at
  compile time from its statically bound positions: all bound → one
  membership test, one bound → that position's index, several → the
  composite index on exactly that signature, none → every fact.  These are
  the live index dicts :meth:`FactStore.candidates_bound` hands the machine
  (:meth:`FactStore.access_path`), hence the same buckets in the same order;
* no general unification — per offered fact, copy the positions that bind a
  new variable and compare the positions repeating one bound by this very
  literal (bound positions already agree: they selected the bucket).

*Same charges, same order.*  One op per fact a bucket offers, one per
membership test, counted against the per-example budget exactly as
``Engine._machine`` counts them: the budget trips on ``> max_ops``, the
tripping op is charged, ``engine.total_ops`` advances by the same amount
and ``engine.last_exhausted`` is written by every body that runs (not by a
head mismatch or an empty body, which never reach the machine either).  A
predicate nobody defined is an empty store: a ground goal costs one op and
fails, an open goal scans an empty bucket for nothing.  The search is the
machine's depth-first, left-to-right, bucket-order search, so op *counts*
(``golden_runs.json``, sim virtual time) cannot move.

*Eligible class, decided per clause.*  The head is a ``Struct`` whose
arguments are ``Var``/``Const``; every body literal is a ``Struct`` with
``Var``/``Const`` arguments over a predicate that has no rules and is not
a builtin, and at most :data:`_MAX_LOOPS` of them scan (Python's limit on
statically nested loops).  Everything else — builtins, negation,
rule-defined or recursive predicates, nested structs, 0-arity goals —
compiles to "no plan" and takes the machine.

*Generated source, once per shape.*  A plan is a Python function with one
``for`` per scanning literal, over its bucket (``c.get(key, ())``) or the
fact list, nested left to right; a membership literal is one
``if key not in c: continue`` inside the loop around it — ``continue``
resumes exactly the alternative the machine would backtrack to — and
returns "not covered" where no loop encloses it.  The source depends only
on the clause's **shape**: the slot count, which slots hold constants, the
head's copy/compare positions and, per literal, whether it is a membership
test or a full scan, the slots of its lookup key and its copy/compare
positions.  Each shape is compiled once per process into a *factory*
(:data:`_FACTORIES`, published with ``setdefault`` so racing threads share
one); a clause's plan is the factory called on its head indicator, its
constants and its literals' live index dicts, which become closure cells.
Clauses that differ only in constants or predicates share a factory.

*No term text.*  Generated source is built from integers and fixed
identifiers only (:func:`_source`).  Constants enter only as closure
values: clauses reach the compiler from the theory registry and the
network, and no part of a term is ever parsed as Python.

*Kept per knowledge base.*  A plan closes over its KB's index dicts and
takes the engine only as a call argument, so ``coverage_eval`` keeps each
clause's plan (or its "no plan") in one table per KB, with the KB version
it was compiled at, and every engine over that KB reads it: a served
theory's plans are built once, not once per request, and a job on a warm
dataset compiles none.  The tables live in a weak map keyed by KB beside
the engine (``repro.logic.engine``), never on the KB, so a KB pickles as
before and a dropped one takes its table along (no plan references its
KB).  A KB mutation recompiles: a new rule may make a clause ineligible (a
new fact needs nothing — ``FactStore.add`` updates the plan's dicts in
place).  Both tables are cleared past :data:`TABLE_CAP` entries, and a
pickled engine leaves its plans behind (closures do not pickle): the copy
joins its own KB's table.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.logic.builtins import is_builtin
from repro.logic.clause import Clause
from repro.logic.terms import Const, Struct, Term, Var

__all__ = ["compile_plan", "NOT_COVERED", "COVERED", "EXHAUSTED"]

#: outcomes of a plan, ``plan(engine, example)``.
NOT_COVERED, COVERED, EXHAUSTED = 0, 1, 2

#: Python refuses more than 20 statically nested blocks in one function.
_MAX_LOOPS = 20

#: shape -> factory(indicator, *constants, *collections) -> plan.
_FACTORIES: dict[tuple, Callable] = {}

#: a plan table (:data:`_FACTORIES`, or a KB's clause -> plan table) is
#: cleared when it holds more entries than this (no measured run of the
#: bundled datasets compiles 2 000 plans, so a warm job compiles none).
TABLE_CAP = 4096


def compile_plan(engine, clause: Clause) -> Optional[Callable]:
    """The plan of ``clause`` against ``engine.kb`` — a function
    ``plan(engine, example)`` that charges ``engine`` what the machine would
    and returns ``COVERED`` / ``NOT_COVERED`` / ``EXHAUSTED`` (not proven:
    the op budget ran out) for a ground ``Struct`` example — or None when the
    clause is outside the eligible class (see the module note)."""
    head = clause.head
    if type(head) is not Struct:
        return None
    kb = engine.kb
    consts: dict[int, Const] = {}
    slots: dict[Term, int] = {}

    def classify(args: tuple):
        """Split a literal's positions into bound on entry / first
        occurrence of a variable / repeat of one first seen in this literal;
        None if an argument is neither ``Var`` nor ``Const``."""
        bound, copy, check = [], [], []
        seen_before = len(slots)
        for pos, a in enumerate(args):
            ta = type(a)
            if ta is not Var and ta is not Const:
                return None
            slot = slots.get(a)
            if slot is None:
                slot = slots[a] = len(slots)
                if ta is Var:
                    copy.append((pos, slot))
                    continue
                consts[slot] = a
            elif ta is Var and slot >= seen_before:
                check.append((pos, slot))
                continue
            bound.append((pos, slot))
        return tuple(bound), tuple(copy), tuple(check)

    parts = classify(head.args)
    if parts is None:
        return None
    head_consts, head_copy, head_check = parts
    steps = []
    collections = []
    for lit in clause.body:
        if type(lit) is not Struct or not lit.args:
            return None
        ind = lit.indicator
        if is_builtin(ind) or kb.rules_for(ind):
            return None
        parts = classify(lit.args)
        if parts is None:
            return None
        bound, copy, check = parts
        store = kb.facts_for(ind)
        index = store.access_path(tuple(pos for pos, _ in bound))
        is_member = len(bound) == len(lit.args)
        steps.append((is_member, index is None, tuple(slot for _, slot in bound), copy, check))
        collections.append(store.facts if index is None else index)
    if sum(not step[0] for step in steps) > _MAX_LOOPS:
        return None
    shape = (len(slots), tuple(consts), head_copy, head_check + head_consts, tuple(steps))
    factory = _FACTORIES.get(shape)
    if factory is None:
        if len(_FACTORIES) > TABLE_CAP:
            _FACTORIES.clear()
        factory = _FACTORIES.setdefault(shape, _build(shape))
    return factory(head.indicator, *consts.values(), *collections)


def _build(shape: tuple) -> Callable:
    """Compile the factory of one shape."""
    namespace: dict = {}
    exec(compile(_source(shape), "<cover plan>", "exec"), namespace)
    return namespace["factory"]


def _source(shape: tuple) -> str:
    """The factory source of one shape: integers and fixed identifiers only.

    Slot *i* is ``s{i}``: a factory parameter for a constant, a local of the
    plan for a variable.  Step *k*'s bucket source is the parameter ``c{k}``.
    """
    _, const_slots, head_copy, head_check, steps = shape
    params = ["ind"] + [f"s{slot}" for slot in const_slots] + [f"c{k}" for k in range(len(steps))]
    lines = [
        f"def factory({', '.join(params)}):",
        " def run(engine, example):",
        "  if example.indicator != ind:",
        f"   return {NOT_COVERED}",
        "  a = example.args",
    ]
    lines += [f"  s{slot} = a[{pos}]" for pos, slot in head_copy]
    for pos, slot in head_check:
        lines += [f"  if s{slot} != a[{pos}]:", f"   return {NOT_COVERED}"]
    if not steps:
        lines.append(f"  return {COVERED}")
    else:
        lines += ["  max_ops = engine.budget.max_ops", "  ops = 0"]

        def leave(pad: str, outcome: int) -> list[str]:
            return [
                f"{pad}engine.total_ops += ops",
                f"{pad}engine.last_exhausted = {outcome == EXHAUSTED}",
                f"{pad}return {outcome}",
            ]

        def charge(pad: str) -> list[str]:
            return [f"{pad}ops += 1", f"{pad}if ops > max_ops:"] + leave(pad + " ", EXHAUSTED)

        pad = "  "
        in_loop = False
        for k, (is_member, is_scan, key_slots, copy, check) in enumerate(steps):
            key = ", ".join(f"s{slot}" for slot in key_slots)
            if len(key_slots) > 1:
                key = f"({key})"
            if is_member:
                lines += charge(pad)
                lines.append(f"{pad}if {key} not in c{k}:")
                lines += [f"{pad} continue"] if in_loop else leave(pad + " ", NOT_COVERED)
                continue
            lines.append(f"{pad}for f in {f'c{k}' if is_scan else f'c{k}.get({key}, ())'}:")
            pad += " "
            in_loop = True
            lines += charge(pad)
            if copy or check:
                lines.append(f"{pad}g = f.args")
            lines += [f"{pad}s{slot} = g[{pos}]" for pos, slot in copy]
            for pos, slot in check:
                lines += [f"{pad}if s{slot} != g[{pos}]:", f"{pad} continue"]
        lines += leave(pad, COVERED)
        if in_loop:
            lines += leave("  ", NOT_COVERED)
    lines.append(" return run")
    return "\n".join(lines) + "\n"
