"""Slot-compiled coverage plans: flat clauses over ground facts, without
the SLD machine's interpretive overhead and with every op charge unchanged.

Design note
-----------
*Static boundness.*  Coverage tests a **ground** example against a clause
whose body literals are over **ground facts**.  Matching the head binds
every head variable to a ground term; each body literal that succeeds binds
every variable it mentions to a ground term (a fact's arguments).  So on
entry to literal *k* the set of its argument positions holding a ground
value is a property of the clause, not of the example: it can be computed
once, before any example is seen.  A plan therefore needs

* no substitution dict and no trail — a flat **register list**, one slot per
  variable and per constant; a slot is written when its literal advances and
  simply overwritten on the next alternative, so there is nothing to undo;
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
a builtin.  Everything else — builtins, negation, rule-defined or recursive
predicates, nested structs, 0-arity goals — compiles to "no plan" and takes
the machine.  So does any engine but the default one: the legacy kernel
indexes on the first argument only and charges differently.

*No cache.*  A plan is compiled per ``coverage_eval`` call and dropped; it
holds live references to index dicts that ``FactStore.add`` updates in
place, and eligibility is re-read from the KB each time, so there is
nothing to invalidate.  Compiling costs less than the ``rename_apart`` the
plan path skips (a plan never mixes clause variables with anything).

A plan is data — tuples walked by :meth:`CoverPlan.run` — not generated
source.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from repro.logic.builtins import is_builtin
from repro.logic.clause import Clause
from repro.logic.terms import Const, Struct, Term, Var

__all__ = ["CoverPlan", "compile_plan", "NOT_COVERED", "COVERED", "EXHAUSTED"]

#: outcomes of :meth:`CoverPlan.run`.
NOT_COVERED, COVERED, EXHAUSTED = 0, 1, 2

_EMPTY: tuple = ()


class CoverPlan:
    """One clause, compiled against one knowledge base.

    ``regs`` is the register template (constants filled in, variable slots
    ``None``).  ``head_copy`` / ``head_check`` are ``(argument position,
    slot)`` pairs: copy a first occurrence, compare a constant or a repeat.
    A body step is ``(is_member, index, key, copy, check, back)``: ``index``
    is the live dict of the literal's access path (``None`` scans
    ``key`` — the store's fact list — instead), ``key`` maps the registers
    to the lookup key, and ``back`` is the step backtracking resumes when
    this one has no (further) alternative.
    """

    __slots__ = ("indicator", "regs", "head_copy", "head_check", "steps")

    def __init__(self, indicator, regs, head_copy, head_check, steps):
        self.indicator = indicator
        self.regs = regs
        self.head_copy = head_copy
        self.head_check = head_check
        self.steps = steps

    def run(self, engine, example: Struct) -> int:
        """Does the clause cover the ground ``example``?  Charges ``engine``
        what the machine would and returns ``COVERED`` / ``NOT_COVERED`` /
        ``EXHAUSTED`` (not proven: the op budget ran out)."""
        if example.indicator != self.indicator:
            return NOT_COVERED
        eargs = example.args
        regs = self.regs[:]
        for pos, slot in self.head_copy:
            regs[slot] = eargs[pos]
        for pos, slot in self.head_check:
            if regs[slot] != eargs[pos]:
                return NOT_COVERED
        steps = self.steps
        n = len(steps)
        if not n:
            return COVERED
        max_ops = engine.budget.max_ops
        ops = 0
        outcome = NOT_COVERED
        alternatives: list = [None] * n
        k = 0
        enter = True
        while k >= 0 and not outcome:
            is_member, index, key, copy, check, back = steps[k]
            if enter and is_member:
                ops += 1
                if ops > max_ops:
                    outcome = EXHAUSTED
                elif key(regs) not in index:
                    k, enter = back, False
                else:
                    k += 1
                    if k == n:
                        outcome = COVERED
                continue
            if enter:
                alternatives[k] = iter(key if index is None else index.get(key(regs), _EMPTY))
            for fact in alternatives[k]:
                ops += 1
                if ops > max_ops:
                    outcome = EXHAUSTED
                    break
                fargs = fact.args
                for pos, slot in copy:
                    regs[slot] = fargs[pos]
                for pos, slot in check:
                    if regs[slot] != fargs[pos]:
                        break
                else:
                    k += 1
                    enter = True
                    if k == n:
                        outcome = COVERED
                    break
            else:
                k, enter = back, False
        engine.total_ops += ops
        engine.last_exhausted = outcome == EXHAUSTED
        return outcome


def compile_plan(engine, clause: Clause) -> Optional[CoverPlan]:
    """The plan of ``clause`` against ``engine.kb``, or None when the clause
    (or the engine) is outside the eligible class — see the module note."""
    if engine.machine != "iterative" or engine.index != "multi":
        return None
    head = clause.head
    if type(head) is not Struct:
        return None
    kb = engine.kb
    regs: list = []
    slots: dict[Term, int] = {}

    def classify(args: tuple):
        """Split a literal's positions into bound on entry / first
        occurrence of a variable / repeat of one first seen in this literal;
        None if an argument is neither ``Var`` nor ``Const``."""
        bound, copy, check = [], [], []
        seen_before = len(regs)
        for pos, a in enumerate(args):
            ta = type(a)
            if ta is not Var and ta is not Const:
                return None
            slot = slots.get(a)
            if slot is None:
                slot = slots[a] = len(regs)
                regs.append(a if ta is Const else None)
                if ta is Var:
                    copy.append((pos, slot))
                    continue
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
    back = -1
    for lit in clause.body:
        if type(lit) is not Struct:
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
        if bound:
            key = itemgetter(*(slot for _, slot in bound))
        else:
            key = store.facts
        is_member = len(bound) == len(lit.args)
        steps.append((is_member, index, key, copy, check, back))
        if not is_member:
            back = len(steps) - 1
    return CoverPlan(head.indicator, regs, head_copy, head_check + head_consts, tuple(steps))
