"""Assorted edge-case tests across modules (failure paths and boundary
conditions not covered by the per-module suites)."""

import dataclasses

import pytest

from repro.experiments.trace import render_gantt
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_term
from repro.obs.span import Span


class TestEngineEdges:
    def test_between_reversed_bounds_fails(self):
        e = Engine(KnowledgeBase())
        assert not e.prove(parse_term("between(5, 1, X)"))

    def test_dif_const_unbound_fails(self):
        kb = KnowledgeBase()
        kb.add_program("p(a).")
        e = Engine(kb)
        # Y never bound to a constant -> dif_const cannot succeed
        assert not e.prove(parse_term("dif_const(a, Y)"))

    def test_empty_kb_queries(self):
        e = Engine(KnowledgeBase())
        assert not e.prove(parse_term("anything(X)"))
        assert len(set(e.solve(parse_term("whatever(a, b)")))) == 0

    def test_zero_arity_goal(self):
        kb = KnowledgeBase()
        kb.add_program("go. stop :- fail.")
        e = Engine(kb)
        assert e.prove(parse_term("go"))
        assert not e.prove(parse_term("stop"))

    def test_rule_only_predicate(self):
        kb = KnowledgeBase()
        kb.add_program("d(X) :- c(X). c(a).")
        e = Engine(kb)
        assert e.prove(parse_term("d(a)"))

    def test_deeply_nested_terms(self):
        kb = KnowledgeBase()
        kb.add_program("w(f(g(h(a)))).")
        e = Engine(kb)
        assert e.prove(parse_term("w(f(g(h(a))))"))
        assert e.prove(parse_term("w(f(G))"))
        assert not e.prove(parse_term("w(f(g(h(b))))"))


class TestTraceEdges:
    def test_interval_past_t_end_clipped(self):
        out = render_gantt([Span(1, "evaluate", 0.0, 5.0)], width=10, t_end=1.0)
        row = out.split("|")[1]
        assert row == "e" * 10  # fills but never overflows

    def test_zero_length_interval(self):
        out = render_gantt([Span(1, "evaluate", 0.5, 0.5), Span(1, "saturate", 0.0, 1.0)], width=10)
        assert "rank 1" in out


class TestDatasetEdges:
    def test_trains_zero_noise_separable(self):
        from repro.datasets import make_dataset
        from repro.logic.engine import Engine
        from repro.logic.parser import parse_term as pt

        ds = make_dataset("trains", seed=2, scale="small", label_noise=0.0)
        eng = Engine(ds.kb, ds.config.engine_budget())
        # zero noise: the planted rule separates perfectly
        for e in ds.neg:
            t = e.args[0]
            assert not eng.prove(pt(f"has_car({t}, C), short(C), closed(C)"))

    def test_mesh_tiny_instance(self):
        from repro.datasets import make_dataset

        ds = make_dataset("mesh", seed=2, n_pos=20, n_neg=5)
        assert (ds.n_pos, ds.n_neg) == (20, 5)

    def test_krki_no_noise_by_default(self):
        from repro.datasets import make_dataset

        ds = make_dataset("krki", seed=2)
        assert ds.config.noise == 0


class TestConfigEdges:
    def test_replace_keeps_other_fields(self):
        from repro.ilp.config import ILPConfig

        cfg = ILPConfig(noise=3, min_pos=4)
        cfg2 = dataclasses.replace(cfg, noise=0)
        assert cfg2.min_pos == 4
        assert cfg.noise == 3  # frozen original untouched

    def test_width_sentinel_roundtrip(self):
        from repro.ilp.config import ILPConfig, NO_LIMIT

        cfg = ILPConfig(pipeline_width=NO_LIMIT)
        assert cfg.pipeline_width is None
