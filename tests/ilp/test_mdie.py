"""Unit tests for the sequential MDIE covering loop (Fig. 1)."""

import dataclasses

import pytest

from repro.ilp.mdie import mdie, select_seed
from repro.ilp.theory import accuracy
from repro.logic.engine import Engine
from repro.logic.io import kb_to_prolog
from repro.util.rng import make_rng


class TestMdie:
    def test_learns_family(self, family_kb, family_pos, family_neg, family_modes, family_config):
        res = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=1)
        assert res.uncovered == 0
        assert len(res.theory) >= 1
        eng = Engine(family_kb, family_config.engine_budget())
        assert accuracy(eng, res.theory, family_pos, family_neg) == 100.0

    def test_deterministic_given_seed(self, family_kb, family_pos, family_neg, family_modes, family_config):
        a = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=5)
        b = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=5)
        assert list(a.theory) == list(b.theory)
        assert a.ops == b.ops

    def test_epochs_counted(self, family_kb, family_pos, family_neg, family_modes, family_config):
        res = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=1)
        assert res.epochs == len([e for e in res.log])
        assert res.epochs >= 1

    def test_max_epochs_stops(self, family_kb, family_pos, family_neg, family_modes, family_config):
        res = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=1, max_epochs=0)
        assert res.epochs == 0
        assert len(res.theory) == 0

    def test_covered_positives_removed(self, family_kb, family_pos, family_neg, family_modes, family_config):
        res = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=1)
        total_covered = sum(entry[2] for entry in res.log)
        assert total_covered == len(family_pos) - res.uncovered

    def test_kb_not_mutated(self, family_kb, family_pos, family_neg, family_modes, family_config):
        before = kb_to_prolog(family_kb)
        mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=1)
        assert kb_to_prolog(family_kb) == before

    def test_skip_mode_leaves_uncoverable(self, family_kb, family_pos, family_neg, family_modes, family_config):
        # noise=0 and min_pos high => no rule is learnable; every seed is skipped
        cfg = dataclasses.replace(family_config, min_pos=len(family_pos) + 1)
        res = mdie(family_kb, family_pos, family_neg, family_modes, cfg, seed=1)
        assert res.uncovered == len(family_pos)
        assert len(res.theory) == 0

    def test_theory_consistent_with_noise_zero(self, family_kb, family_pos, family_neg, family_modes, family_config):
        res = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=2)
        eng = Engine(family_kb, family_config.engine_budget())
        from repro.ilp.theory import confusion

        rep = confusion(eng, res.theory, family_pos, family_neg)
        assert rep.fp == 0  # noise=0: no negative may be covered


class TestSelectSeed:
    def test_none_when_empty(self):
        assert select_seed(0, make_rng(0)) is None

    def test_respects_mask(self):
        assert select_seed(0b10, make_rng(0)) == 1

    def test_random_draw_is_one_choice_over_the_ascending_set_bits(self):
        # Every RNG stream depends on this exact call: one rng.choice over
        # the candidate indices in ascending order.
        for seed in range(20):
            assert select_seed(0b101101, make_rng(seed)) == make_rng(seed).choice([0, 2, 3, 5])
