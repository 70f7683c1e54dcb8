"""Unit tests for mode declarations."""

import pytest

from repro.ilp.modes import ArgSpec, ModeDecl, ModeSet, parse_mode


class TestParseMode:
    def test_modeh(self):
        m = parse_mode("modeh(1, active(+mol))")
        assert m.is_head
        assert m.predicate == "active"
        assert m.recall == 1
        assert m.args == (ArgSpec("+", "mol"),)

    def test_modeb_star_recall(self):
        m = parse_mode("modeb(*, parent(+person, -person))")
        assert not m.is_head
        assert m.recall is None

    def test_placemarker_kinds(self):
        m = parse_mode("modeb(2, bond(+mol, -atom, #elem))")
        assert m.input_positions() == (0,)
        assert [a.kind for a in m.args] == ["+", "-", "#"]

    def test_bare_template(self):
        m = parse_mode("f(+a, -b)", default_head=True)
        assert m.is_head
        assert m.recall is None

    def test_invalid_placemarker(self):
        with pytest.raises(ValueError):
            parse_mode("modeb(1, p(a))")

    def test_atom_template_rejected(self):
        with pytest.raises(ValueError):
            parse_mode("modeb(1, nullary)")

    @pytest.mark.parametrize("recall", ["0", "-1"])
    def test_recall_below_one_rejected(self, recall):
        """Recall bounds the answers per input binding; ``ILPConfig``
        refuses a default recall below 1 and so does a mode."""
        with pytest.raises(ValueError, match="recall"):
            parse_mode(f"modeb({recall}, p(-t))")

    def test_str_roundtrip(self):
        m = parse_mode("modeb(2, bond(+mol, -atom, #elem))")
        assert str(m) == "modeb(2, bond(+mol, -atom, #elem))"
        assert parse_mode(str(m)) == m

    def test_indicator_and_arity(self):
        m = parse_mode("modeb(1, p(+a, -b, #c))")
        assert m.indicator == ("p", 3)
        assert len(m.args) == 3


class TestArgSpec:
    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ArgSpec("?", "t")

    def test_str(self):
        assert str(ArgSpec("+", "mol")) == "+mol"


class TestModeSet:
    def test_routing(self):
        ms = ModeSet(["modeh(1, p(+t))", "modeb(1, q(+t))"])
        assert len(ms.head_modes) == 1
        assert len(ms.body_modes) == 1
        assert [str(m) for m in ms] == ["modeh(1, p(+t))", "modeb(1, q(+t))"]

    def test_head_mode_for(self):
        ms = ModeSet(["modeh(1, p(+t))"])
        assert ms.head_mode_for(("p", 1)) is not None
        assert ms.head_mode_for(("p", 2)) is None

    def test_validate_ok(self):
        ms = ModeSet(["modeh(1, p(+a))", "modeb(1, q(+a, -b))", "modeb(1, r(+b))"])
        ms.validate()

    def test_validate_requires_head(self):
        ms = ModeSet(["modeb(1, q(+a))"])
        with pytest.raises(ValueError, match="modeh"):
            ms.validate()

    def test_validate_unproducible_type(self):
        ms = ModeSet(["modeh(1, p(+a))", "modeb(1, q(+zz))"])
        with pytest.raises(ValueError, match="zz"):
            ms.validate()

    def test_accepts_mode_objects(self):
        m = parse_mode("modeb(1, q(+a))")
        ms = ModeSet([m])
        assert ms.body_modes == [m]

    def test_iteration_order(self):
        ms = ModeSet(["modeb(1, q(+a))", "modeh(1, p(+a))", "modeb(1, r(+a))"])
        names = [m.predicate for m in ms]
        assert names == ["p", "q", "r"]  # heads first, then bodies in order
