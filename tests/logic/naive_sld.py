"""A naive SLD evaluator: the oracle that is not the code under test.

ROADMAP item 3 asks for a coverage check that shares nothing with what it
checks.  This one imports the term classes and nothing else from
``repro.logic`` — no engine, no ``unify``, no ``KnowledgeBase``: a program
is a plain list of ``(head, body)`` pairs scanned front to back for every
goal, substitutions are dicts copied on every binding, clauses are renamed
by suffixing a counter to their variable names, and resolution is the
textbook recursion.  It handles definite clauses and negation as failure
(``\\+``), bounded by rule-expansion depth and by an op count (one op per
clause tried).  It is slow on purpose; it exists to be obviously right.
"""

import itertools

from repro.logic.terms import Const, Struct, Var


class OutOfBudget(Exception):
    """The op budget of one :func:`covers` call ran out."""


def walk(term, subst):
    while type(term) is Var and term in subst:
        term = subst[term]
    return term


def unify(a, b, subst):
    """``subst`` extended to make ``a`` and ``b`` equal, or None."""
    a, b = walk(a, subst), walk(b, subst)
    if type(a) is Var:
        return subst if a == b else {**subst, a: b}
    if type(b) is Var:
        return {**subst, b: a}
    if type(a) is Const or type(b) is Const:
        return subst if a == b else None
    if a.functor != b.functor or len(a.args) != len(b.args):
        return None
    for x, y in zip(a.args, b.args):
        subst = unify(x, y, subst)
        if subst is None:
            return None
    return subst


def rename(term, tag):
    if type(term) is Var:
        return Var(f"{term.name}~{tag}")
    if type(term) is Struct:
        return Struct(term.functor, tuple(rename(a, tag) for a in term.args))
    return term


class Prover:
    """``program``: ``(head, body)`` pairs, facts first or not — order only
    decides which proof is found first, never whether one exists."""

    def __init__(self, program, max_depth=12, max_ops=1_000_000):
        self.program = list(program)
        self.max_depth = max_depth
        self.max_ops = max_ops
        self._tags = itertools.count()

    def solve(self, goals, subst, depth):
        if not goals:
            yield subst
            return
        goal, rest = walk(goals[0], subst), goals[1:]
        if type(goal) is Struct and goal.functor == "\\+" and len(goal.args) == 1:
            if next(self.solve((goal.args[0],), subst, depth), None) is None:
                yield from self.solve(rest, subst, depth)
            return
        for head, body in self.program:
            self.ops += 1
            if self.ops > self.max_ops:
                raise OutOfBudget
            if body:
                if depth == 0:
                    continue
                tag = next(self._tags)
                head, body = rename(head, tag), tuple(rename(b, tag) for b in body)
            unified = unify(goal, head, subst)
            if unified is not None:
                yield from self.solve(body + rest, unified, depth - bool(body))

    def covers(self, head, body, example):
        """Is ``example`` an instance of ``head`` whose body is provable?"""
        self.ops = 0
        head, body = rename(head, "q"), tuple(rename(b, "q") for b in body)
        subst = unify(head, example, {})
        if subst is None:
            return False
        return next(self.solve(body, subst, self.max_depth), None) is not None

    def covered_bits(self, clauses, examples):
        """Bitset of the examples some ``(head, body)`` of ``clauses`` covers."""
        bits = 0
        for i, example in enumerate(examples):
            if any(self.covers(h, b, example) for h, b in clauses):
                bits |= 1 << i
        return bits
