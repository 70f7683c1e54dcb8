"""Rule coverage evaluation (the paper's ``evalOnExamples``).

A rule ``h :- b1, ..., bn`` covers a ground example ``e`` iff ``e`` unifies
with ``h`` and the instantiated body is provable from the background
knowledge (within the engine's resource bounds — budget-exhausted proofs
count as *not covered*, the standard resource-bounded semantics).

Coverage over an example list is returned as an **integer bitset** (bit i
set ⇔ example i covered).  Bitsets make the parallel algorithm's bag
re-evaluation, global aggregation and ``mark_covered`` steps cheap and
exact, and they serialize compactly between simulated cluster nodes.

**Coverage inheritance.**  Specialisation is monotone: a refinement
``R' = R + literal`` can only cover a subset of what ``R`` covers, so a
candidate mask restricts which examples need testing at all
(:func:`coverage_eval`'s ``candidates``).  Resource-bounded semantics adds
one wrinkle: an example the parent failed on *because the query budget ran
out* is not proven uncovered, so :func:`coverage_eval` also returns an
``exhausted`` bitset and a sound candidate mask for refinements is
``covered | exhausted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.logic.clause import Clause
from repro.logic.cover_plan import COVERED, EXHAUSTED, CoverPlan, compile_plan
from repro.logic.engine import Engine
from repro.logic.terms import Struct, Term
from repro.logic.unify import match, resolve, unify

__all__ = [
    "covers",
    "coverage_bitset",
    "coverage_eval",
    "theory_covered_bits",
    "CoverageStats",
    "popcount",
    "bitset_from_indices",
    "indices_from_bitset",
]


def popcount(bits: int) -> int:
    """Number of set bits (examples covered)."""
    return bits.bit_count()


def bitset_from_indices(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def indices_from_bitset(bits: int):
    """Iterate the set-bit positions of ``bits``, ascending.

    Extracts the lowest set bit with ``bits & -bits`` each step, so the
    cost is proportional to the popcount, not the bit length.
    """
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def covers(engine: Engine, rule: Clause, example: Term) -> bool:
    """True iff ``rule`` covers ``example`` given ``engine.kb``.

    >>> from repro.logic import KnowledgeBase, Engine, parse_clause, parse_term
    >>> kb = KnowledgeBase(); kb.add_program("q(a).")
    >>> covers(Engine(kb), parse_clause("p(X) :- q(X)."), parse_term("p(a)"))
    True
    """
    r = rule.rename_apart()
    subst = unify(r.head, example)
    if subst is None:
        return False
    if not r.body:
        return True
    goals = tuple(resolve(b, subst) for b in r.body)
    return engine.prove(goals)


def coverage_eval(
    engine: Engine, rule: Clause, examples: Sequence[Term], candidates: Optional[int] = None
) -> tuple[int, int]:
    """(covered bitset, exhausted bitset) of ``rule`` over ``examples``.

    ``candidates`` restricts which examples are tested: bits outside it are
    assumed (and must be provably) uncovered — callers pass a parent rule's
    ``covered | exhausted`` mask.  The returned bitsets are always over the
    full example list.

    A flat clause over ground facts runs as a slot plan
    (:mod:`repro.logic.cover_plan`), anything else on the SLD machine; the
    two agree in bitsets, op charges and ``engine.last_exhausted``.
    """
    plan = compile_plan(engine, rule)
    if plan is None:
        return _machine_loop(engine, rule, examples, candidates)
    return _plan_loop(engine, plan, rule, examples, candidates)


def _tested(examples: Sequence[Term], candidates: Optional[int]):
    """Indices of the examples a coverage loop tests, ascending."""
    if candidates is None:
        return range(len(examples))
    return indices_from_bitset(candidates & ((1 << len(examples)) - 1))


def _machine_loop(
    engine: Engine, rule: Clause, examples: Sequence[Term], candidates: Optional[int]
) -> tuple[int, int]:
    """:func:`coverage_eval` on the SLD machine: any clause, any engine."""
    bits = 0
    exh = 0
    # One renaming serves every example: examples are ground, so distinct
    # examples can never entangle the rule's (fresh) variables.
    r = rule.rename_apart()
    head, body = r.head, r.body
    for i in _tested(examples, candidates):
        # Examples are ground, so one-way matching of the head suffices and
        # the resulting bindings seed the body proof directly.
        subst = match(head, examples[i])
        if subst is None:
            continue
        if not body:
            bits |= 1 << i
            continue
        if engine.prove_body(body, subst):
            bits |= 1 << i
        elif engine.last_exhausted:
            exh |= 1 << i
    return bits, exh


def _plan_loop(
    engine: Engine, plan: CoverPlan, rule: Clause, examples: Sequence[Term], candidates: Optional[int]
) -> tuple[int, int]:
    """:func:`coverage_eval` through a compiled plan.  A plan assumes ground
    examples; the odd one that is not goes to the machine by itself."""
    bits = 0
    exh = 0
    run = plan.run
    for i in _tested(examples, candidates):
        example = examples[i]
        if type(example) is not Struct or not example.ground:
            b, e = _machine_loop(engine, rule, examples, 1 << i)
            bits |= b
            exh |= e
            continue
        outcome = run(engine, example)
        if outcome == COVERED:
            bits |= 1 << i
        elif outcome == EXHAUSTED:
            exh |= 1 << i
    return bits, exh


def coverage_bitset(
    engine: Engine, rule: Clause, examples: Sequence[Term], candidates: Optional[int] = None
) -> int:
    """Bitset of examples covered by ``rule``."""
    return coverage_eval(engine, rule, examples, candidates)[0]


def theory_covered_bits(
    engine: Engine,
    clauses: Sequence[Clause],
    examples: Sequence[Term],
    micro_batch: int = 1024,
) -> int:
    """Bitset of examples covered by *any* clause of a theory.

    First-match semantics: later clauses only test the examples no
    earlier clause covered, which is sound because theory coverage is
    the union of clause coverages (monotone — covered stays covered).
    ``micro_batch`` bounds the slice evaluated per clause pass (it caps
    transient bitset width on very large batches); the returned bitset
    is independent of its value, and of how callers split ``examples``
    into spans — each example's decision depends only on the clause
    list, the KB and the engine budget.  This is the shared evaluation
    kernel of the query tier:
    :meth:`repro.service.query.PreparedTheory.query` calls it once per
    span, so a batch merged from k spans is bit-identical to the
    one-span answer by construction.
    """
    covered = 0
    for lo in range(0, len(examples), micro_batch):
        chunk = examples[lo : lo + micro_batch]
        remaining = (1 << len(chunk)) - 1
        chunk_bits = 0
        for clause in clauses:
            bits, _ = coverage_eval(engine, clause, chunk, candidates=remaining)
            chunk_bits |= bits
            remaining &= ~bits
            if not remaining:
                break
        covered |= chunk_bits << lo
    return covered


@dataclass(frozen=True)
class CoverageStats:
    """Aggregated evaluation result for one rule.

    ``pos``/``neg`` are *counts*; ``pos_bits`` is the positive-coverage
    bitset (needed by ``mark_covered``), ``neg_bits`` the negative one.
    In the parallel algorithm these are summed/OR-ed across subsets.
    """

    pos: int
    neg: int
    pos_bits: int = 0
    neg_bits: int = 0

    def merged(self, other: "CoverageStats", pos_shift: int = 0, neg_shift: int = 0) -> "CoverageStats":
        """Combine stats from two disjoint example subsets.

        ``pos_shift``/``neg_shift`` position the other subset's bits within
        a global numbering (used by the master to aggregate worker
        results).
        """
        return CoverageStats(
            pos=self.pos + other.pos,
            neg=self.neg + other.neg,
            pos_bits=self.pos_bits | (other.pos_bits << pos_shift),
            neg_bits=self.neg_bits | (other.neg_bits << neg_shift),
        )

    @staticmethod
    def of(engine: Engine, rule: Clause, pos: Sequence[Term], neg: Sequence[Term]) -> "CoverageStats":
        pb = coverage_bitset(engine, rule, pos)
        nb = coverage_bitset(engine, rule, neg)
        return CoverageStats(pos=popcount(pb), neg=popcount(nb), pos_bits=pb, neg_bits=nb)
