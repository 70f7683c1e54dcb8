"""A naive SLD evaluator: the oracle that is not the code under test.

ROADMAP item 3 asks for a coverage check that shares nothing with what it
checks.  This one imports the term classes and nothing else from
``repro.logic`` — no engine, no ``unify``, no ``KnowledgeBase``, no
``builtins``: a program is a plain list of ``(head, body)`` pairs scanned
front to back for every goal, substitutions are dicts copied on every
binding, clauses are renamed by suffixing a counter to their variable
names, and resolution is the textbook recursion.  It handles definite
clauses, negation as failure (``\\+`` / ``not``) and the engine's builtins
(``=``, ``\\=``, ``==``, ``\\==``, arithmetic comparison, ``is``,
``between/3``, ``dif_const/2``), each written out below from what the
builtin means, bounded by rule-expansion depth and by an op count (one op
per clause tried).  It is slow on purpose; it exists to be obviously right.
"""

import itertools
import operator

from repro.logic.terms import Const, Struct, Var


class OutOfBudget(Exception):
    """The op budget of one :func:`covers` / :func:`solutions` call ran out."""


class NotArithmetic(Exception):
    """An expression with an unbound variable, a non-number or an unknown functor."""


def walk(term, subst):
    while type(term) is Var and term in subst:
        term = subst[term]
    return term


def substitute(term, subst):
    """``term`` with every bound variable replaced, all the way down."""
    term = walk(term, subst)
    if type(term) is Struct:
        return Struct(term.functor, tuple(substitute(a, subst) for a in term.args))
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


ARITHMETIC = {
    ("+", 2): operator.add,
    ("-", 2): operator.sub,
    ("*", 2): operator.mul,
    ("/", 2): operator.truediv,
    ("mod", 2): operator.mod,
    ("min", 2): min,
    ("max", 2): max,
    ("-", 1): operator.neg,
    ("+", 1): operator.pos,
    ("abs", 1): abs,
}

COMPARISONS = {"<": operator.lt, ">": operator.gt, "=<": operator.le, ">=": operator.ge}


def evaluate(term, subst):
    """The number an arithmetic expression stands for under ``subst``."""
    term = walk(term, subst)
    if type(term) is Const:
        if type(term.value) in (int, float):
            return term.value
        raise NotArithmetic(term)
    if type(term) is Var:
        raise NotArithmetic(term)
    fn = ARITHMETIC.get((term.functor, len(term.args)))
    if fn is None:
        raise NotArithmetic(term)
    return fn(*(evaluate(a, subst) for a in term.args))


def flatten(goal):
    """The conjuncts of a ``','/2`` term, left to right."""
    if type(goal) is Struct and goal.functor == "," and len(goal.args) == 2:
        return flatten(goal.args[0]) + flatten(goal.args[1])
    return (goal,)


class Prover:
    """``program``: ``(head, body)`` pairs, facts first or not — order only
    decides which proof is found first, never whether one exists."""

    def __init__(self, program, max_depth=12, max_ops=1_000_000):
        self.program = list(program)
        self.max_depth = max_depth
        self.max_ops = max_ops
        self._tags = itertools.count()
        self.ops = 0
        self._builtins = {
            ("true", 0): self._true,
            ("fail", 0): self._fail,
            ("false", 0): self._fail,
            (",", 2): self._conj,
            ("=", 2): self._unify,
            ("\\=", 2): self._not_unifiable,
            ("==", 2): self._identical,
            ("\\==", 2): self._not_identical,
            ("is", 2): self._is,
            ("\\+", 1): self._negation,
            ("not", 1): self._negation,
            ("between", 3): self._between,
            ("dif_const", 2): self._dif_const,
            **{(name, 2): self._comparison(op) for name, op in COMPARISONS.items()},
        }

    def solve(self, goals, subst, depth):
        if not goals:
            yield subst
            return
        goal, rest = walk(goals[0], subst), goals[1:]
        if type(goal) is Var:
            raise TypeError("unbound variable as goal")
        args = goal.args if type(goal) is Struct else ()
        builtin = self._builtins.get((goal.functor if args else goal.value, len(args)))
        if builtin is not None:
            for extended in builtin(args, subst, depth):
                yield from self.solve(rest, extended, depth)
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
                yield from self.solve(tuple(body) + rest, unified, depth - bool(body))

    # -- builtins: generators of the substitutions their goal succeeds under --
    def _true(self, args, subst, depth):
        yield subst

    def _fail(self, args, subst, depth):
        return iter(())

    def _conj(self, args, subst, depth):
        yield from self.solve(args, subst, depth)

    def _unify(self, args, subst, depth):
        unified = unify(args[0], args[1], subst)
        if unified is not None:
            yield unified

    def _not_unifiable(self, args, subst, depth):
        if unify(args[0], args[1], subst) is None:
            yield subst

    def _identical(self, args, subst, depth):
        if substitute(args[0], subst) == substitute(args[1], subst):
            yield subst

    def _not_identical(self, args, subst, depth):
        if substitute(args[0], subst) != substitute(args[1], subst):
            yield subst

    def _comparison(self, op):
        def compare(args, subst, depth):
            try:
                holds = op(evaluate(args[0], subst), evaluate(args[1], subst))
            except NotArithmetic:
                return
            if holds:
                yield subst

        return compare

    def _is(self, args, subst, depth):
        try:
            value = evaluate(args[1], subst)
        except NotArithmetic:
            return
        yield from self._unify((args[0], Const(value)), subst, depth)

    def _negation(self, args, subst, depth):
        if next(self.solve((args[0],), subst, depth), None) is None:
            yield subst

    def _between(self, args, subst, depth):
        try:
            lo, hi = int(evaluate(args[0], subst)), int(evaluate(args[1], subst))
        except NotArithmetic:
            return
        x = walk(args[2], subst)
        if type(x) is Const:
            if type(x.value) is int and lo <= x.value <= hi:
                yield subst
            return
        for v in range(lo, hi + 1):
            yield from self._unify((x, Const(v)), subst, depth)

    def _dif_const(self, args, subst, depth):
        a, b = walk(args[0], subst), walk(args[1], subst)
        if type(a) is Const and type(b) is Const and a != b:
            yield subst

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

    def solutions(self, goal):
        """Every answer to ``goal`` (a ``','/2`` conjunction is split into its
        conjuncts), in SLD order, shaped as ``Engine.solve`` shapes them: the
        resolved goal, or a tuple of the resolved conjuncts."""
        self.ops = 0
        goals = flatten(goal)
        for subst in self.solve(goals, {}, self.max_depth):
            resolved = tuple(substitute(g, subst) for g in goals)
            yield resolved[0] if len(resolved) == 1 else resolved
