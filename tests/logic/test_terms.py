"""Unit tests for repro.logic.terms."""

import pytest

from repro.logic.terms import (
    Const,
    Struct,
    Var,
    atom,
    fresh_var,
    is_ground,
    mk_term,
    term_depth,
    term_size,
    variables_of,
)


class TestVar:
    def test_equality_by_name(self):
        assert Var("X") == Var("X")
        assert Var("X") != Var("Y")

    def test_hashable(self):
        assert len({Var("X"), Var("X"), Var("Y")}) == 2

    def test_str(self):
        assert str(Var("Abc")) == "Abc"

    def test_not_equal_to_const(self):
        assert Var("X") != Const("X")


class TestConst:
    def test_equality(self):
        assert Const("a") == Const("a")
        assert Const(1) == Const(1)
        assert Const("a") != Const("b")

    def test_int_float_distinct(self):
        assert Const(1) != Const(1.0)

    def test_str_rendering(self):
        assert str(Const("ethyl")) == "ethyl"
        assert str(Const(3)) == "3"


class TestStruct:
    def test_equality_structural(self):
        assert atom("p", "a", "X") == atom("p", "a", "X")
        assert atom("p", "a") != atom("p", "b")
        assert atom("p", "a") != atom("q", "a")

    def test_arity_and_indicator(self):
        t = atom("bond", "m1", "a1", "a2", 2)
        assert t.arity == 4
        assert t.indicator == ("bond", 4)

    def test_str(self):
        assert str(atom("p", "a", "X")) == "p(a, X)"

    def test_nested(self):
        t = Struct("f", (Struct("g", (Const("a"),)), Var("X")))
        assert str(t) == "f(g(a), X)"


class TestMkTerm:
    def test_uppercase_is_var(self):
        assert isinstance(mk_term("Xyz"), Var)
        assert isinstance(mk_term("_foo"), Var)

    def test_lowercase_is_const(self):
        assert mk_term("abc") == Const("abc")

    def test_numbers(self):
        assert mk_term(3) == Const(3)
        assert mk_term(2.5) == Const(2.5)

    def test_bool_becomes_symbol(self):
        assert mk_term(True) == Const("true")

    def test_passthrough(self):
        v = Var("Q")
        assert mk_term(v) is v

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            mk_term([1, 2])


class TestAtomHelper:
    def test_zero_arity_is_const(self):
        assert atom("nil") == Const("nil")

    def test_mixed_args(self):
        t = atom("p", "X", "a", 7)
        assert isinstance(t.args[0], Var)
        assert t.args[1] == Const("a")
        assert t.args[2] == Const(7)


class TestTraversals:
    def test_variables_of_order_and_repeats(self):
        t = atom("p", "X", "Y", "X")
        assert [v.name for v in variables_of(t)] == ["X", "Y", "X"]

    def test_term_size(self):
        assert term_size(Const("a")) == 1
        assert term_size(atom("p", "a", "X")) == 3

    def test_term_depth(self):
        assert term_depth(Const("a")) == 0
        assert term_depth(atom("p", "a")) == 1
        assert term_depth(Struct("f", (Struct("g", (Const("a"),)),))) == 2

    def test_is_ground(self):
        assert is_ground(atom("p", "a", 1))
        assert not is_ground(atom("p", "a", "X"))


class TestFreshVar:
    def test_unique(self):
        vs = {fresh_var() for _ in range(100)}
        assert len(vs) == 100

    def test_prefix(self):
        assert fresh_var("_Q").name.startswith("_Q")
