"""Unit + property tests for example partitioning (Fig. 5 line 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.terms import atom
from repro.parallel.partition import partition_examples
from repro.util.rng import make_rng


def _examples(n, pred="p"):
    return [atom(pred, i) for i in range(n)]


class TestPartition:
    def test_every_example_exactly_once(self):
        pos, neg = _examples(10), _examples(7, "n")
        parts = partition_examples(pos, neg, 3, make_rng(0))
        all_pos = [e for p in parts for e in p.pos]
        all_neg = [e for p in parts for e in p.neg]
        assert sorted(map(str, all_pos)) == sorted(map(str, pos))
        assert sorted(map(str, all_neg)) == sorted(map(str, neg))

    def test_even_sizes(self):
        parts = partition_examples(_examples(10), _examples(9, "n"), 4, make_rng(0))
        pos_sizes = [len(p.pos) for p in parts]
        neg_sizes = [len(p.neg) for p in parts]
        assert max(pos_sizes) - min(pos_sizes) <= 1
        assert max(neg_sizes) - min(neg_sizes) <= 1

    def test_deterministic(self):
        a = partition_examples(_examples(20), _examples(20, "n"), 4, make_rng(5))
        b = partition_examples(_examples(20), _examples(20, "n"), 4, make_rng(5))
        assert a == b

    def test_different_seed_different_split(self):
        a = partition_examples(_examples(20), _examples(20, "n"), 4, make_rng(1))
        b = partition_examples(_examples(20), _examples(20, "n"), 4, make_rng(2))
        assert a != b

    def test_p1_is_everything(self):
        parts = partition_examples(_examples(5), _examples(3, "n"), 1, make_rng(0))
        assert len(parts) == 1
        assert len(parts[0].pos) == 5 and len(parts[0].neg) == 3

    def test_p_larger_than_examples(self):
        parts = partition_examples(_examples(2), _examples(1, "n"), 5, make_rng(0))
        assert len(parts) == 5
        assert sum(len(p.pos) for p in parts) == 2

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            partition_examples(_examples(2), _examples(1, "n"), 0, make_rng(0))


@given(st.integers(1, 40), st.integers(0, 40), st.integers(1, 8), st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_partition_properties(n_pos, n_neg, p, seed):
    """Disjoint, covering, balanced — for any sizes and processor count."""
    pos, neg = _examples(n_pos), _examples(n_neg, "n")
    parts = partition_examples(pos, neg, p, make_rng(seed))
    assert len(parts) == p
    assert sum(len(x.pos) for x in parts) == n_pos
    assert sum(len(x.neg) for x in parts) == n_neg
    sizes = [len(x.pos) for x in parts]
    assert max(sizes) - min(sizes) <= 1
    seen = set()
    for part in parts:
        for e in part.pos:
            assert e not in seen
            seen.add(e)
