"""θ-subsumption: the generality order, as an oracle for the tests.

Clause ``C`` θ-subsumes ``D`` (written ``C ⪰ D``) iff there is a
substitution θ with ``Cθ ⊆ D`` (literal sets).  θ-subsumption is the
ordering Plotkin defined and the one the paper's search (and virtually all
MDIE systems) uses: a rule is *more general* than another iff it subsumes
it.  The learner never decides it — refinement appends literals, so a
child is specialised by construction — but tests check that claim, and the
bottom clause's, against this matcher.

Beside ``naive_sld.py`` and like it, this imports only the term classes
and one-way matching from ``repro.logic``.  Deciding θ-subsumption is
NP-complete in general; the backtracking matcher below is exact, with
literal ordering by candidate count (fewest first) to keep the search
small on ILP-sized clauses.
"""

from repro.logic.terms import Struct
from repro.logic.unify import match


def _literal_candidates(lit, targets):
    if isinstance(lit, Struct):
        return [
            t
            for t in targets
            if isinstance(t, Struct) and t.functor == lit.functor and len(t.args) == len(lit.args)
        ]
    return [t for t in targets if t == lit]


def theta_subsumes(c, d) -> bool:
    """True iff clause ``c`` θ-subsumes clause ``d`` (``c`` at least as
    general as ``d``)."""
    # Heads must match (we compare rules for one target predicate).
    subst = match(c.head, d.head)
    if subst is None:
        return False
    targets = list(d.body) + [d.head]
    # Candidate lists depend only on functor/arity — never on the evolving
    # substitution — so compute each literal's list once and order
    # literals by how constrained they are.
    pairs = sorted(
        ((lit, _literal_candidates(lit, targets)) for lit in c.body),
        key=lambda p: len(p[1]),
    )
    if pairs and not pairs[0][1]:
        # Some literal has no match target at all: no θ can exist.
        return False

    def backtrack(i, subst):
        if i == len(pairs):
            return True
        lit, cands = pairs[i]
        for cand in cands:
            s2 = match(lit, cand, subst)
            if s2 is not None and backtrack(i + 1, s2):
                return True
        return False

    return backtrack(0, subst)


def strictly_more_general(c, d) -> bool:
    """``c`` subsumes ``d`` but not vice versa."""
    return theta_subsumes(c, d) and not theta_subsumes(d, c)
