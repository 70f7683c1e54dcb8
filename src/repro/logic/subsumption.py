"""θ-subsumption: the generality order ILP search spaces are structured by.

Clause ``C`` θ-subsumes ``D`` (written ``C ⪰ D``) iff there is a
substitution θ with ``Cθ ⊆ D`` (literal sets).  θ-subsumption is the
ordering Plotkin defined and the one the paper's search (and virtually all
MDIE systems) uses: a rule is *more general* than another iff it subsumes
it.

Deciding θ-subsumption is NP-complete in general; the backtracking matcher
below is exact, with literal ordering by candidate count (fewest first) to
keep the search small on ILP-sized clauses.
"""

from __future__ import annotations

from typing import Optional

from repro.logic.clause import Clause
from repro.logic.terms import Struct, Term, Var
from repro.logic.unify import match, walk

__all__ = [
    "theta_subsumes",
    "subsume_equivalent",
    "strictly_more_general",
]


def _literal_candidates(lit: Term, targets: list[Term]) -> list[Term]:
    if isinstance(lit, Struct):
        return [
            t
            for t in targets
            if isinstance(t, Struct) and t.functor == lit.functor and len(t.args) == len(lit.args)
        ]
    return [t for t in targets if t == lit]


def theta_subsumes(c: Clause, d: Clause) -> bool:
    """True iff ``c`` θ-subsumes ``d`` (``c`` at least as general as ``d``).

    >>> from repro.logic.parser import parse_clause
    >>> g = parse_clause("p(X) :- q(X, Y).")
    >>> s = parse_clause("p(a) :- q(a, b), r(a).")
    >>> theta_subsumes(g, s)
    True
    >>> theta_subsumes(s, g)
    False
    """
    # Heads must match (we compare rules for one target predicate).
    subst = match(c.head, d.head)
    if subst is None:
        return False
    targets = list(d.body) + [d.head]
    # Candidate lists depend only on functor/arity — never on the evolving
    # substitution — so compute each literal's list exactly once (the seed
    # recomputed them inside every backtracking step) and order literals
    # by how constrained they are.
    pairs = sorted(
        ((lit, _literal_candidates(lit, targets)) for lit in c.body),
        key=lambda p: len(p[1]),
    )
    if pairs and not pairs[0][1]:
        # Some literal has no match target at all: no θ can exist.
        return False

    def backtrack(i: int, subst: dict) -> bool:
        if i == len(pairs):
            return True
        lit, cands = pairs[i]
        for cand in cands:
            s2 = match(lit, cand, subst)
            if s2 is not None and backtrack(i + 1, s2):
                return True
        return False

    return backtrack(0, subst)


def subsume_equivalent(c: Clause, d: Clause) -> bool:
    """Subsumption-equivalence: each clause subsumes the other.

    Equal canonical fingerprints short-circuit the NP-complete matcher:
    they guarantee the clauses are alphabetic variants, and variants are
    subsumption-equivalent by definition.
    """
    if c is d or c == d or c.fingerprint() == d.fingerprint():
        return True
    return theta_subsumes(c, d) and theta_subsumes(d, c)


def strictly_more_general(c: Clause, d: Clause) -> bool:
    """``c`` subsumes ``d`` but not vice versa."""
    return theta_subsumes(c, d) and not theta_subsumes(d, c)
