"""Tests for the shared utilities (rng, formatting)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.fmt import fmt_float, fmt_int, render_table
from repro.util.rng import RngStream, derive_seed, make_rng, weighted_draw


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_label_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_types(self):
        assert derive_seed(0, ("x", 1)) != derive_seed(0, ("x", 2))

    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_collision_resistance_smoke(self, a, b):
        if a != b:
            assert derive_seed(a, "k") != derive_seed(b, "k")


class TestMakeRng:
    def test_same_stream(self):
        assert make_rng(7, "x").random() == make_rng(7, "x").random()

    def test_independent_streams(self):
        assert make_rng(7, "x").random() != make_rng(7, "y").random()


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**64),
    values=st.lists(st.integers(), min_size=1, max_size=8, unique=True),
    weights=st.lists(
        st.integers(1, 1000) | st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False),
        min_size=8, max_size=8,
    ),
    n=st.integers(1, 40),
)
def test_weighted_draw_is_choices_draw_for_draw(seed, values, weights, n):
    """``weighted_draw(values, w)(rng)`` is ``rng.choices(values, weights=w,
    k=1)[0]``: the same value from the same stream, which ends in the same
    state."""
    values, weights = tuple(values), tuple(weights[: len(values)])
    draw = weighted_draw(values, weights)
    ours, theirs = random.Random(seed), random.Random(seed)
    assert [draw(ours) for _ in range(n)] == [
        theirs.choices(values, weights=weights, k=1)[0] for _ in range(n)
    ]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize(
    "values, weights",
    [((), ()), (("a", "b"), (1.0,)), (("a",), (0.0,)), (("a",), (float("inf"),))],
)
def test_weighted_draw_refuses_weights_choices_cannot_draw_by(values, weights):
    with pytest.raises(ValueError):
        weighted_draw(values, weights)


class TestRngStream:
    def test_child_paths(self):
        root = RngStream(seed=1)
        a = root.child("part")
        b = root.child("part")
        assert a.rng.random() == b.rng.random()

    def test_nested_children_differ(self):
        root = RngStream(seed=1)
        assert root.child("a").rng.random() != root.child("a", "b").rng.random()

    def test_passthroughs(self):
        s = RngStream(seed=3).child("t")
        xs = [1, 2, 3, 4]
        s.shuffle(xs)
        assert sorted(xs) == [1, 2, 3, 4]
        assert s.choice([1]) == 1
        assert 0 <= s.randint(0, 5) <= 5
        assert 0.0 <= s.random() < 1.0
        assert 1.0 <= s.uniform(1.0, 2.0) <= 2.0
        assert len(s.sample(range(10), 3)) == 3
        s.gauss(0, 1)  # no exception


class TestFmt:
    def test_fmt_int_thousands(self):
        assert fmt_int(3231) == "3,231"
        assert fmt_int(999.6) == "1,000"

    def test_fmt_float(self):
        assert fmt_float(3.14159, 2) == "3.14"

    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert lines[0].index("bb") == lines[1].index("2")
        assert lines[0].index("bb") == lines[2].index("4")

    def test_render_table_title(self):
        out = render_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"
        assert set(out.splitlines()[1]) == {"-"}
