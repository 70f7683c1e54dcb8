"""Unit tests for the bottom-clause-guided refinement operator."""


import pytest

from theta_subsumption import theta_subsumes

from repro.ilp.bottom import BottomClause, BottomLiteral, build_bottom
from repro.ilp.config import ILPConfig
from repro.ilp.refinement import SearchRule, refinements, rule_vars_in_scope, start_rule
from repro.logic.clause import Clause
from repro.logic.terms import Const, Struct, Var, variables_of
from repro.parallel import wire
from repro.parallel.messages import PipelineTask


def walked_scope(rule: SearchRule, bottom) -> frozenset:
    """The oracle for a rule's scope: head variables plus every variable
    of the body, read off the clause itself."""
    scope = set(bottom.head_vars)
    for lit in rule.clause.body:
        scope.update(variables_of(lit))
    return frozenset(scope)


@pytest.fixture
def bottom(family_engine, family_modes, family_config, family_pos):
    return build_bottom(family_pos[0], family_engine, family_modes, family_config)


class TestStartRule:
    def test_bare_head(self, bottom):
        sr = start_rule(bottom)
        assert sr.clause.body == ()
        assert sr.last_index == -1


class TestRefinements:
    def test_children_extend_by_one(self, bottom, family_config):
        sr = start_rule(bottom)
        for child in refinements(sr, bottom, family_config):
            assert len(child.clause.body) == 1
            assert child.last_index >= 0

    def test_indices_strictly_increase(self, bottom, family_config):
        sr = start_rule(bottom)
        kids = list(refinements(sr, bottom, family_config))
        for child in kids:
            for gc in refinements(child, bottom, family_config):
                assert gc.last_index > child.last_index

    def test_connectivity(self, bottom, family_config):
        # every refinement's new literal has its inputs in scope
        sr = start_rule(bottom)
        frontier = [sr]
        for _ in range(2):
            nxt = []
            for r in frontier:
                scope = walked_scope(r, bottom)
                for child in refinements(r, bottom, family_config):
                    new_lit_index = child.last_index
                    bl = bottom.literals[new_lit_index]
                    assert bl.input_vars <= scope
                    nxt.append(child)
            frontier = nxt

    def test_no_duplicate_subsequences(self, bottom, family_config):
        # exhaustive 2-level expansion generates distinct clauses
        sr = start_rule(bottom)
        seen = set()
        for child in refinements(sr, bottom, family_config):
            for gc in refinements(child, bottom, family_config):
                assert gc.clause not in seen
                seen.add(gc.clause)

    def test_max_clause_length_stops(self, bottom):
        cfg = ILPConfig(max_clause_length=1)
        sr = start_rule(bottom)
        child = next(iter(refinements(sr, bottom, cfg)))
        assert list(refinements(child, bottom, cfg)) == []

    def test_refinement_specialises(self, bottom, family_config):
        # each child is θ-subsumed by its parent (generality decreases)
        sr = start_rule(bottom)
        for child in refinements(sr, bottom, family_config):
            assert theta_subsumes(sr.clause, child.clause)

    def test_deterministic_order(self, bottom, family_config):
        a = [c.clause for c in refinements(start_rule(bottom), bottom, family_config)]
        b = [c.clause for c in refinements(start_rule(bottom), bottom, family_config)]
        assert a == b


class TestSearchRule:
    def test_frozen(self, bottom):
        sr = start_rule(bottom)
        with pytest.raises(AttributeError):
            sr.last_index = 5

    def test_scope_is_carried_but_not_compared_or_shown(self, bottom, family_config):
        child = next(iter(refinements(start_rule(bottom), bottom, family_config)))
        assert child.parent_scope == bottom.head_vars
        bare = SearchRule(child.clause, child.last_index)
        assert bare == child and hash(bare) == hash(child) and repr(bare) == repr(child)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def bottom_clauses(draw) -> BottomClause:
    """Bottom clauses shaped like ``build_bottom``'s: layers of literals
    whose inputs come from earlier layers and whose outputs are new or
    already-seen variables, with ``#`` constants among the arguments."""
    names = iter(f"V{i}" for i in range(1000))
    head_vars = [Var(next(names)) for _ in range(draw(st.integers(1, 3)))]
    head_args = list(head_vars)
    if draw(st.booleans()):
        head_args.insert(draw(st.integers(0, len(head_args))), Const("k"))
    seen = list(head_vars)
    available = list(head_vars)
    literals, found = [], set()
    for _layer in range(draw(st.integers(1, 3))):
        new = []
        for _ in range(draw(st.integers(0, 5))):
            ins = draw(st.lists(st.sampled_from(available), max_size=2))
            outs = []
            for _ in range(draw(st.integers(0, 2))):
                if draw(st.booleans()):
                    v = Var(next(names))
                    seen.append(v)
                    new.append(v)
                else:
                    v = draw(st.sampled_from(seen))
                outs.append(v)
            consts = draw(
                st.lists(
                    st.sampled_from([Const("a"), Const(1), Const("_0"), Const("a;b"), Const(":-")]),
                    max_size=1,
                )
            )
            args = draw(st.permutations(ins + outs + consts))
            if not args:
                continue
            lit = Struct(draw(st.sampled_from(["p", "q", "r"])), tuple(args))
            if lit in found:
                continue
            found.add(lit)
            literals.append(BottomLiteral(lit, frozenset(ins), frozenset(outs)))
        available += new
    head = Struct("h", tuple(head_args))
    return BottomClause(seed=head, head=head, literals=literals, head_vars=frozenset(head_vars))


def _over_the_wire(rule: SearchRule, bottom: BottomClause) -> SearchRule:
    """``rule`` shipped in a pipeline task carrying its bottom clause, and
    rebuilt from its positions there."""
    task = PipelineTask(bottom=bottom, step=2, width=None, rules=(rule,), origin=1)
    (decoded,) = wire.decode(wire.encode_always(task)).rules
    assert decoded == rule and str(decoded) == str(rule)
    assert decoded.last_index == rule.last_index and decoded.parent_scope is None
    assert decoded.clause.variant_key() == rule.clause.variant_key()
    return decoded


def _assert_prefix_is_parent_key(clause: Clause) -> None:
    """The key's parent prefix is the key of the body minus its last literal."""
    plen = clause.parent_key_length()
    if not clause.body:
        assert plen == 0
        return
    assert clause.variant_key()[:plen] == Clause(clause.head, clause.body[:-1]).variant_key()


@settings(max_examples=200, deadline=None)
@given(bottom=bottom_clauses(), data=st.data())
def test_refinement_chains_carry_keys_and_scopes(bottom, data):
    """Down a random chain of refinements, some links rebuilt from the
    wire and some keys left unasked until the end: every clause's key is
    the from-scratch key, its parent prefix the key of its body minus the
    last literal, and every carried scope the walked one."""
    config = ILPConfig(max_clause_length=data.draw(st.integers(1, 5)))
    rule = start_rule(bottom)
    chain = [rule]
    while True:
        children = list(refinements(rule, bottom, config))
        for child in children:
            assert rule_vars_in_scope(child, bottom) == walked_scope(child, bottom)
        if not children:
            break
        if data.draw(st.booleans()):
            for child in data.draw(st.permutations(children)):
                _assert_prefix_is_parent_key(child.clause)
                assert child.clause.variant_key() == Clause(child.clause.head, child.clause.body).variant_key()
        rule = data.draw(st.sampled_from(children))
        if data.draw(st.booleans()):
            rule = _over_the_wire(rule, bottom)
        if data.draw(st.booleans()):
            rule.clause.variant_key()
        chain.append(rule)
    for rule in data.draw(st.permutations(chain)):
        fresh = Clause(rule.clause.head, rule.clause.body)
        for clause in data.draw(st.permutations([rule.clause, fresh])):
            _assert_prefix_is_parent_key(clause)
        assert rule.clause.variant_key() == fresh.variant_key()
        assert rule_vars_in_scope(rule, bottom) == walked_scope(rule, bottom)
