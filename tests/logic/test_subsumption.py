"""Unit + property tests for the θ-subsumption oracle
(``theta_subsumption.py``): the matcher other tests check generality
claims against."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_subsumption import strictly_more_general, theta_subsumes

from repro.logic.clause import Clause
from repro.logic.parser import parse_clause
from repro.logic.terms import Const, Struct, Var


def subsume_equivalent(c, d) -> bool:
    """Subsumption-equivalence: each clause subsumes the other."""
    return theta_subsumes(c, d) and theta_subsumes(d, c)


class TestThetaSubsumes:
    def test_identity(self):
        c = parse_clause("p(X) :- q(X).")
        assert theta_subsumes(c, c)

    def test_generalisation(self):
        g = parse_clause("p(X) :- q(X, Y).")
        s = parse_clause("p(a) :- q(a, b), r(a).")
        assert theta_subsumes(g, s)
        assert not theta_subsumes(s, g)

    def test_head_mismatch(self):
        assert not theta_subsumes(parse_clause("p(a)."), parse_clause("p(b)."))

    def test_empty_body_subsumes_everything_same_head(self):
        g = parse_clause("p(X).")
        s = parse_clause("p(a) :- q(a), r(b).")
        assert theta_subsumes(g, s)

    def test_shared_variable_constraint(self):
        g = parse_clause("p(X) :- q(X, X).")
        s1 = parse_clause("p(a) :- q(a, a).")
        s2 = parse_clause("p(a) :- q(a, b).")
        assert theta_subsumes(g, s1)
        assert not theta_subsumes(g, s2)

    def test_multi_literal_matching_needs_backtracking(self):
        # First candidate match for q(X,Y) must be revised to satisfy r(Y).
        g = parse_clause("p(X) :- q(X, Y), r(Y).")
        s = parse_clause("p(a) :- q(a, b), q(a, c), r(c).")
        assert theta_subsumes(g, s)

    def test_longer_can_subsume_shorter(self):
        # classic: C with repeated literals subsumes its reduction
        c = parse_clause("p(X) :- q(X, Y), q(X, Z).")
        d = parse_clause("p(X) :- q(X, Y).")
        assert theta_subsumes(c, d)
        assert theta_subsumes(d, c)
        assert subsume_equivalent(c, d)

    def test_strictly_more_general(self):
        g = parse_clause("p(X) :- q(X, Y).")
        s = parse_clause("p(X) :- q(X, Y), r(Y).")
        assert strictly_more_general(g, s)
        assert not strictly_more_general(s, g)


# ---- property-based: refinement chains are generality chains ----------------

_preds = ("q", "r", "s")


@st.composite
def _clause_chain(draw):
    """A clause and an extension of it by extra literals."""
    head = Struct("p", (Var("X"),))
    n = draw(st.integers(0, 3))
    body = []
    vars_ = [Var("X")]
    for i in range(n):
        pred = draw(st.sampled_from(_preds))
        v = Var(f"V{i}")
        body.append(Struct(pred, (draw(st.sampled_from(vars_)), v)))
        vars_.append(v)
    extra_pred = draw(st.sampled_from(_preds))
    extra = Struct(extra_pred, (draw(st.sampled_from(vars_)), Const("k")))
    return Clause(head, tuple(body)), Clause(head, tuple(body) + (extra,))


@given(_clause_chain())
@settings(max_examples=100, deadline=None)
def test_adding_literal_specialises(pair):
    """C θ-subsumes C + extra literal (the refinement invariant)."""
    general, special = pair
    assert theta_subsumes(general, special)


@given(_clause_chain())
@settings(max_examples=100, deadline=None)
def test_subsumption_transitive_along_chain(pair):
    general, special = pair
    head_only = Clause(general.head, ())
    assert theta_subsumes(head_only, general)
    assert theta_subsumes(head_only, special)


class TestEquivalenceInvariance:
    """Subsumption-equivalence is invariant under variable renaming and
    body-literal reordering."""

    CASES = [
        ("p(X) :- q(X, Y), r(Y).", "p(A) :- q(A, B), r(B)."),
        ("p(X) :- q(X, Y), r(Y).", "p(A) :- r(B), q(A, B)."),
        ("p(X) :- s(X), q(X, Y), r(Y, z).", "p(U) :- r(V, z), q(U, V), s(U)."),
        ("p(X, Y) :- q(X), q(Y).", "p(B, A) :- q(A), q(B)."),
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_variants_are_equivalent(self, a, b):
        ca, cb = parse_clause(a), parse_clause(b)
        assert subsume_equivalent(ca, cb)
        assert subsume_equivalent(cb, ca)

    def test_non_equivalent_unchanged(self):
        g = parse_clause("p(X) :- q(X, Y).")
        s = parse_clause("p(a) :- q(a, b), r(a).")
        assert not subsume_equivalent(g, s)
        assert not subsume_equivalent(
            parse_clause("p(X) :- q(X)."), parse_clause("p(X) :- r(X).")
        )


class TestMatcherSoundness:
    """Regressions for the one-way matcher: a pattern variable bound to a
    target variable must never be rebound (clauses under comparison may
    share variable names, so self-bindings like X -> X are real bindings,
    not unbound chains)."""

    def test_chain_does_not_subsume_shorter(self):
        c = parse_clause("p(X) :- q(X, Y), q(Y, Z).")
        d = parse_clause("p(X) :- q(X, Y).")
        assert not theta_subsumes(c, d)
        assert theta_subsumes(d, c)

    def test_chain_clause_is_irreducible(self):
        c = parse_clause("p(X) :- q(X, Y), q(Y, Z).")
        for i in range(len(c.body)):
            shorter = Clause(c.head, c.body[:i] + c.body[i + 1 :])
            assert not theta_subsumes(c, shorter)

    def test_repeated_var_does_not_match_distinct(self):
        a = parse_clause("p(X) :- q(X, X).")
        b = parse_clause("p(X) :- q(X, Y).")
        assert not theta_subsumes(a, b)
        assert theta_subsumes(b, a)
        assert not subsume_equivalent(a, b)

    def test_shared_names_self_equivalence(self):
        c = parse_clause("p(X) :- q(X, Y), q(Y, Z).")
        assert subsume_equivalent(c, c.rename_apart())
        assert theta_subsumes(c, c)
