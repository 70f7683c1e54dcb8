"""Unit tests for the learn_rule search (Figs. 2 and 7)."""

import dataclasses

import pytest

from repro.ilp.bottom import build_bottom
from repro.ilp.config import ILPConfig
from repro.ilp.search import learn_rule
from repro.ilp.store import ExampleStore
from repro.logic.parser import parse_clause


@pytest.fixture
def bottom(family_engine, family_modes, family_config, family_pos):
    return build_bottom(family_pos[0], family_engine, family_modes, family_config)


@pytest.fixture
def store(family_pos, family_neg):
    return ExampleStore(family_pos, family_neg)


class TestBasicSearch:
    def test_finds_target(self, family_engine, bottom, store, family_config):
        res = learn_rule(family_engine, bottom, store, family_config, width=None)
        best = res.best
        assert best is not None
        assert best.stats.pos == 5 and best.stats.neg == 0
        target = parse_clause("daughter(A, B) :- parent(B, A), female(A).")
        assert any(er.clause == target for er in res.good)

    def test_good_rules_are_good(self, family_engine, bottom, store, family_config):
        res = learn_rule(family_engine, bottom, store, family_config, width=None)
        for er in res.good:
            assert er.stats.pos >= family_config.min_pos
            assert er.stats.neg <= family_config.noise

    def test_sorted_by_score(self, family_engine, bottom, store, family_config):
        res = learn_rule(family_engine, bottom, store, family_config, width=None)
        scores = [er.score for er in res.good]
        assert scores == sorted(scores, reverse=True)

    def test_bare_head_never_in_good(self, family_engine, bottom, store, family_config):
        res = learn_rule(family_engine, bottom, store, family_config, width=None)
        assert all(er.clause.body for er in res.good)


class TestWidth:
    def test_width_truncates(self, family_engine, bottom, store, family_config):
        full = learn_rule(family_engine, bottom, store, family_config, width=None)
        w2 = learn_rule(family_engine, bottom, store, family_config, width=2)
        assert len(w2.good) == min(2, len(full.good))
        assert [e.clause for e in w2.good] == [e.clause for e in full.good[:2]]

    def test_default_width_from_config(self, family_engine, bottom, store, family_config):
        cfg = dataclasses.replace(family_config, pipeline_width=1)
        res = learn_rule(family_engine, bottom, store, cfg, width=cfg.pipeline_width)
        assert len(res.good) <= 1


class TestSeeds:
    def test_seeds_included_in_good(self, family_engine, bottom, store, family_config):
        first = learn_rule(family_engine, bottom, store, family_config, width=3)
        seeds = [er.rule for er in first.good]
        res = learn_rule(family_engine, bottom, store, family_config, seeds=seeds, width=None)
        good_clauses = {er.clause for er in res.good}
        for s in seeds:
            assert s.clause in good_clauses

    def test_seeded_search_continues_refining(self, family_engine, bottom, store, family_config):
        # seeding with the bare head reproduces the unseeded search
        from repro.ilp.refinement import start_rule

        unseeded = learn_rule(family_engine, bottom, store, family_config, width=None)
        seeded = learn_rule(
            family_engine, bottom, store, family_config, seeds=[start_rule(bottom)], width=None
        )
        assert [e.clause for e in unseeded.good] == [e.clause for e in seeded.good]


class TestResourceAccounting:
    def test_max_nodes_respected(self, family_engine, bottom, store, family_config):
        cfg = dataclasses.replace(family_config, max_nodes=5)
        res = learn_rule(family_engine, bottom, store, cfg, width=None)
        assert res.nodes_generated <= 5
        assert res.exhausted

    def test_ops_positive(self, family_engine, bottom, store, family_config):
        res = learn_rule(family_engine, bottom, store, family_config, width=None)
        assert res.ops > 0

    def test_deterministic(self, family_engine, bottom, store, family_config):
        a = learn_rule(family_engine, bottom, store, family_config, width=None)
        b = learn_rule(family_engine, bottom, store, family_config, width=None)
        assert [e.clause for e in a.good] == [e.clause for e in b.good]


class TestPruning:
    def test_zero_pos_prunes_expansion(self, family_engine, bottom, family_config):
        # a store where nothing is alive: search evaluates the root and
        # cannot find good rules
        dead = ExampleStore([], [])
        res = learn_rule(family_engine, bottom, dead, family_config, width=None)
        assert res.good == []
        assert res.nodes_generated == 1  # the bare head only


class TestMdie:
    def test_covering_loop_works(self, family_kb, family_pos, family_neg, family_modes, family_config):
        from repro.ilp.mdie import mdie

        res = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=1)
        assert res.uncovered == 0
