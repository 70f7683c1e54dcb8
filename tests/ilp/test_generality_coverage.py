"""Cross-module property: θ-subsumption implies coverage containment.

The soundness bridge between the search's syntactic ordering and its
semantic pruning rule: if clause C θ-subsumes clause D, then every example
D covers, C covers too.  This is exactly why `learn_rule` may prune a
subtree when positive cover drops below `min_pos` — specialisation can
only shrink coverage.  Tested here with hypothesis over random refinement
chains evaluated on the family knowledge base.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_subsumption import theta_subsumes

from repro.ilp.bottom import build_bottom
from repro.ilp.coverage import coverage_bitset
from repro.ilp.refinement import refinements, start_rule

# fixtures from tests/ilp/conftest.py are function-scoped; hypothesis needs
# module-level setup instead.
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_term


def _setup():
    kb = KnowledgeBase()
    kb.add_program(
        """
        parent(ann, mary). parent(ann, tom). parent(tom, eve). parent(tom, ian).
        parent(sue, bob). parent(bob, joan). parent(eve, kim). parent(mary, liz).
        female(ann). female(mary). female(eve). female(sue). female(joan).
        female(kim). female(liz). male(tom). male(ian). male(bob).
        """
    )
    pos = [
        parse_term(s)
        for s in (
            "daughter(mary, ann)",
            "daughter(eve, tom)",
            "daughter(joan, bob)",
            "daughter(kim, eve)",
            "daughter(liz, mary)",
        )
    ]
    neg = [
        parse_term(s)
        for s in (
            "daughter(tom, ann)",
            "daughter(ian, tom)",
            "daughter(eve, ann)",
            "daughter(bob, sue)",
        )
    ]
    modes = ModeSet(
        [
            "modeh(1, daughter(+person, +person))",
            "modeb(*, parent(+person, -person))",
            "modeb(*, parent(-person, +person))",
            "modeb(1, female(+person))",
            "modeb(1, male(+person))",
        ]
    )
    config = ILPConfig(min_pos=1, max_clause_length=4, var_depth=2, max_nodes=500)
    engine = Engine(kb, config.engine_budget())
    bottoms = [build_bottom(e, engine, modes, config) for e in pos]
    return engine, config, pos, neg, bottoms


_ENGINE, _CONFIG, _POS, _NEG, _BOTTOMS = _setup()


@st.composite
def refinement_chain(draw):
    """A random (parent, child) pair along the refinement lattice."""
    bottom = draw(st.sampled_from(_BOTTOMS))
    rule = start_rule(bottom)
    depth = draw(st.integers(1, 3))
    child = None
    for _ in range(depth):
        kids = list(refinements(rule, bottom, _CONFIG))
        if not kids:
            break
        child = draw(st.sampled_from(kids))
        rule, child = child, None
        parent = rule
    # regenerate one more level for the (parent, child) pair
    kids = list(refinements(rule, bottom, _CONFIG))
    if not kids:
        return rule, rule
    return rule, draw(st.sampled_from(kids))


@given(refinement_chain())
@settings(max_examples=60, deadline=None)
def test_refinement_subsumes_child(pair):
    parent, child = pair
    assert theta_subsumes(parent.clause, child.clause)


@given(refinement_chain())
@settings(max_examples=60, deadline=None)
def test_coverage_monotone_under_refinement(pair):
    """child coverage ⊆ parent coverage, on positives and negatives."""
    parent, child = pair
    for examples in (_POS, _NEG):
        pb = coverage_bitset(_ENGINE, parent.clause, examples)
        cb = coverage_bitset(_ENGINE, child.clause, examples)
        assert cb & ~pb == 0, (
            f"specialisation gained coverage: {parent.clause} -> {child.clause}"
        )


@given(refinement_chain())
@settings(max_examples=40, deadline=None)
def test_subsumption_implies_coverage_containment(pair):
    """The general soundness property, checked on arbitrary lattice pairs."""
    a, b = pair
    if theta_subsumes(a.clause, b.clause):
        pa = coverage_bitset(_ENGINE, a.clause, _POS)
        pb = coverage_bitset(_ENGINE, b.clause, _POS)
        assert pb & ~pa == 0
