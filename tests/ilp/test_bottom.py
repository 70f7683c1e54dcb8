"""Unit tests for bottom-clause construction (MDIE saturation)."""

import pytest

from theta_subsumption import theta_subsumes

from repro.ilp.bottom import SaturationError, build_bottom
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_term
from repro.logic.terms import Const, Var


class TestHeadConstruction:
    def test_head_variablized(self, family_kb, family_modes, family_config, family_engine, family_pos):
        b = build_bottom(family_pos[0], family_engine, family_modes, family_config)
        assert b.head.functor == "daughter"
        assert all(isinstance(a, Var) for a in b.head.args)
        assert len(b.head_vars) == 2

    def test_same_constant_same_var(self, family_engine, family_modes, family_config):
        # daughter(x, x) would map both args to ONE variable
        e = parse_term("daughter(mary, mary)")
        b = build_bottom(e, family_engine, family_modes, family_config)
        assert b.head.args[0] == b.head.args[1]

    def test_hash_head_arg_stays_constant(self):
        kb = KnowledgeBase()
        kb.add_program("attr(e1, red).")
        modes = ModeSet(["modeh(1, cls(+e, #color))", "modeb(1, attr(+e, #color))"])
        eng = Engine(kb)
        b = build_bottom(parse_term("cls(e1, red)"), eng, modes, ILPConfig())
        assert b.head.args[1] == Const("red")

    def test_no_matching_modeh(self, family_engine, family_modes, family_config):
        with pytest.raises(SaturationError):
            build_bottom(parse_term("son(a, b)"), family_engine, family_modes, family_config)

    def test_nonground_example_rejected(self, family_engine, family_modes, family_config):
        with pytest.raises(SaturationError):
            build_bottom(parse_term("daughter(X, ann)"), family_engine, family_modes, family_config)


class TestBodySaturation:
    def test_contains_explaining_literals(self, family_engine, family_modes, family_config, family_pos):
        b = build_bottom(family_pos[0], family_engine, family_modes, family_config)
        lits = {str(bl.literal) for bl in b.literals}
        # daughter(mary, ann): parent(ann, mary) and female(mary) must appear,
        # variablized as parent(B, A) / female(A).
        a, bvar = b.head.args
        assert f"parent({bvar}, {a})" in lits
        assert f"female({a})" in lits

    def test_target_entailed_by_bottom(self, family_engine, family_modes, family_config, family_pos):
        # The bottom clause must subsume (be specialisable to) the target rule.
        from repro.logic.parser import parse_clause

        target = parse_clause("daughter(A, B) :- parent(B, A), female(A).")
        for e in family_pos:
            b = build_bottom(e, family_engine, family_modes, family_config)
            assert theta_subsumes(target, b.as_clause())

    def test_dedup(self, family_engine, family_modes, family_config, family_pos):
        b = build_bottom(family_pos[0], family_engine, family_modes, family_config)
        lits = [bl.literal for bl in b.literals]
        assert len(lits) == len(set(lits))

    def test_layering_gates_new_vars(self):
        # chain a->b->c: depth 1 sees only first hop
        kb = KnowledgeBase()
        kb.add_program("step(a, b). step(b, c).")
        modes = ModeSet(["modeh(1, start(+node))", "modeb(*, step(+node, -node))"])
        eng = Engine(kb)
        shallow = build_bottom(parse_term("start(a)"), eng, modes, ILPConfig(var_depth=1))
        deep = build_bottom(parse_term("start(a)"), eng, modes, ILPConfig(var_depth=2))
        assert len(shallow.literals) == 1
        assert len(deep.literals) == 2

    def test_recall_limits_answers(self):
        kb = KnowledgeBase()
        kb.add_program(" ".join(f"n(a, b{i})." for i in range(20)))
        modes = ModeSet(["modeh(1, t(+x))", "modeb(3, n(+x, -y))"])
        eng = Engine(kb)
        b = build_bottom(parse_term("t(a)"), eng, modes, ILPConfig())
        assert len(b.literals) == 3

    def test_max_bottom_literals_cap(self, family_engine, family_modes, family_pos):
        cfg = ILPConfig(max_bottom_literals=2)
        b = build_bottom(family_pos[0], family_engine, family_modes, cfg)
        assert len(b.literals) == 2

    def test_deterministic(self, family_engine, family_modes, family_config, family_pos):
        b1 = build_bottom(family_pos[0], family_engine, family_modes, family_config)
        b2 = build_bottom(family_pos[0], family_engine, family_modes, family_config)
        assert b1.as_clause() == b2.as_clause()

    def test_input_vars_recorded(self, family_engine, family_modes, family_config, family_pos):
        b = build_bottom(family_pos[0], family_engine, family_modes, family_config)
        for bl in b.literals:
            if bl.literal.functor == "female":
                assert len(bl.input_vars) == 1
                assert not bl.output_vars


class TestBottomClauseApi:
    def test_most_general_rule(self, family_engine, family_modes, family_config, family_pos):
        b = build_bottom(family_pos[0], family_engine, family_modes, family_config)
        mg = b.most_general_rule()
        assert mg.head == b.head
        assert mg.body == ()

    def test_str(self, family_engine, family_modes, family_config, family_pos):
        b = build_bottom(family_pos[0], family_engine, family_modes, family_config)
        assert str(b) == str(b.as_clause()) and " :- " in str(b)
