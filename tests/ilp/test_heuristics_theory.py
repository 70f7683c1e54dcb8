"""Unit tests for the rule score, acceptance, theories and config."""

import pytest

from repro.ilp.config import ILPConfig
from repro.ilp.heuristics import is_good, score_rule
from repro.ilp.theory import TheoryReport, accuracy, confusion, predicts
from repro.logic.clause import Theory
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_clause, parse_term


class TestHeuristics:
    def test_coverage(self):
        assert score_rule(10, 3) == 7.0
        assert score_rule(0, 4) == -4.0


class TestIsGood:
    def test_min_pos(self):
        cfg = ILPConfig(min_pos=3, noise=0)
        assert not is_good(2, 0, cfg)
        assert is_good(3, 0, cfg)

    def test_noise_bound(self):
        cfg = ILPConfig(min_pos=1, noise=2)
        assert is_good(5, 2, cfg)
        assert not is_good(5, 3, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ILPConfig(max_clause_length=0)
        with pytest.raises(ValueError):
            ILPConfig(noise=-1)
        with pytest.raises(ValueError):
            ILPConfig(pipeline_width=0)
        with pytest.raises(ValueError):
            ILPConfig(min_pos=0)
        with pytest.raises(ValueError, match="max_nodes"):
            ILPConfig(max_nodes=0)
        with pytest.raises(ValueError, match="max_nodes"):
            ILPConfig(max_nodes=-3)
        with pytest.raises(ValueError, match="max_bottom_literals"):
            ILPConfig(max_bottom_literals=0)

    def test_width_none_ok(self):
        assert ILPConfig(pipeline_width=None).pipeline_width is None

    def test_engine_budget(self):
        cfg = ILPConfig(engine_max_depth=5, engine_max_ops=100)
        b = cfg.engine_budget()
        assert (b.max_depth, b.max_ops) == (5, 100)


class TestTheoryPrediction:
    @pytest.fixture
    def setup(self):
        kb = KnowledgeBase()
        kb.add_program("q(a). q(b). r(c).")
        theory = Theory([parse_clause("p(X) :- q(X).")])
        return Engine(kb), theory

    def test_predicts(self, setup):
        eng, th = setup
        assert predicts(eng, th, parse_term("p(a)"))
        assert not predicts(eng, th, parse_term("p(c)"))

    def test_confusion(self, setup):
        eng, th = setup
        pos = [parse_term("p(a)"), parse_term("p(c)")]
        neg = [parse_term("p(b)"), parse_term("p(z)")]
        rep = confusion(eng, th, pos, neg)
        assert (rep.tp, rep.fn, rep.fp, rep.tn) == (1, 1, 1, 1)
        assert rep.accuracy == 0.5
        assert rep.precision == 0.5
        assert rep.recall == 0.5

    def test_accuracy_percentage(self, setup):
        eng, th = setup
        assert accuracy(eng, th, [parse_term("p(a)")], [parse_term("p(z)")]) == 100.0

    def test_empty_theory_rejects_all(self, setup):
        eng, _ = setup
        th = Theory()
        assert accuracy(eng, th, [parse_term("p(a)")], [parse_term("p(z)")]) == 50.0

    @pytest.mark.parametrize("name", ["trains", "krki", "carcinogenesis"])
    def test_confusion_counts_what_predicts_says(self, name):
        """The one-pass confusion is the per-example ``predicts`` count."""
        from repro.datasets import make_dataset
        from repro.ilp.mdie import mdie

        ds = make_dataset(name, seed=0, scale="small")
        theory = mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=0).theory
        rep = confusion(ds.config.make_engine(ds.kb), theory, ds.pos, ds.neg)
        eng = ds.config.make_engine(ds.kb)
        assert rep.tp == sum(predicts(eng, theory, e) for e in ds.pos)
        assert rep.fp == sum(predicts(eng, theory, e) for e in ds.neg)
        assert (rep.tp + rep.fn, rep.fp + rep.tn) == (len(ds.pos), len(ds.neg))

    def test_report_zero_division(self):
        rep = TheoryReport(tp=0, fn=0, tn=0, fp=0)
        assert rep.accuracy == 0.0
        assert rep.precision == 0.0
        assert rep.recall == 0.0
