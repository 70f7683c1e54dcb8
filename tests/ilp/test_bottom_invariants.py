"""The fundamental MDIE invariant: ⊥e entails its seed example.

Saturation produces the *most specific* clause for the seed within the
language bias — so the bottom clause (and every prefix of it generated by
refinement) must cover the seed example itself.  Checked across all four
dataset generators on multiple seeds, making this both an ILP-correctness
and a generator-sanity test.
"""

import dataclasses

import pytest

from repro.datasets import make_dataset
from repro.ilp.bottom import build_bottom
from repro.ilp.coverage import covers
from repro.ilp.refinement import refinements, start_rule
from repro.logic.engine import Engine

DATASETS = ("trains", "carcinogenesis", "mesh", "pyrimidines", "krki")


@pytest.mark.parametrize("name", DATASETS)
class TestBottomCoversSeed:
    def test_bottom_clause_covers_seed(self, name):
        # The full bottom clause entails its seed *logically*, but proving a
        # 50-literal conjunction can exceed any realistic op budget (real
        # MDIE systems never prove the whole ⊥e either).  A truncated
        # saturation (a prefix of the full body) is more general and must be
        # provable cheaply — that is the part of the invariant the search
        # actually relies on.
        ds = make_dataset(name, seed=11, scale="small")
        cfg = dataclasses.replace(ds.config, max_bottom_literals=8)
        engine = Engine(ds.kb, cfg.engine_budget())
        for example in ds.pos[:4]:
            bottom = build_bottom(example, engine, ds.modes, cfg)
            assert covers(engine, bottom.as_clause(), example), (
                f"{name}: bottom-clause prefix fails to entail its own seed {example}"
            )

    def test_every_refinement_covers_seed(self, name):
        ds = make_dataset(name, seed=11, scale="small")
        engine = Engine(ds.kb, ds.config.engine_budget())
        example = ds.pos[0]
        bottom = build_bottom(example, engine, ds.modes, ds.config)
        frontier = [start_rule(bottom)]
        for _level in range(2):
            nxt = []
            for rule in frontier:
                kids = list(refinements(rule, bottom, ds.config))
                nxt.extend(kids[:5])  # sample to keep the test fast
            for rule in nxt:
                assert covers(engine, rule.clause, example), (
                    f"{name}: prefix {rule.clause} of the bottom clause misses its seed"
                )
            frontier = nxt[:5]

    def test_head_matches_seed_predicate(self, name):
        ds = make_dataset(name, seed=11, scale="small")
        engine = Engine(ds.kb, ds.config.engine_budget())
        example = ds.pos[0]
        bottom = build_bottom(example, engine, ds.modes, ds.config)
        assert bottom.head.indicator == example.indicator
