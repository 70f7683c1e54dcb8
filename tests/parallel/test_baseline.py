"""Tests for the coverage-parallel baseline (§6 related work)."""

import pytest

from repro.cluster.message import Tag
from repro.ilp.theory import accuracy
from repro.logic.engine import Engine
from repro.parallel.coverage_parallel import run_coverage_parallel
from repro.parallel.p2mdie import run_p2mdie


class TestBaselineLearning:
    def test_learns(self, kb, pos, neg, modes, config):
        res = run_coverage_parallel(kb, pos, neg, modes, config, p=2, batch_size=8, seed=3)
        assert res.uncovered == 0
        eng = Engine(kb, config.engine_budget())
        assert accuracy(eng, res.theory, pos, neg) == 100.0

    def test_deterministic(self, kb, pos, neg, modes, config):
        a = run_coverage_parallel(kb, pos, neg, modes, config, p=2, batch_size=4, seed=3)
        b = run_coverage_parallel(kb, pos, neg, modes, config, p=2, batch_size=4, seed=3)
        assert list(a.theory) == list(b.theory)
        assert a.seconds == b.seconds

    def test_invalid_batch_size(self, kb, pos, neg, modes, config):
        from repro.parallel.coverage_parallel import CoverageParallelMaster

        with pytest.raises(ValueError):
            CoverageParallelMaster(2, kb, pos, neg, modes, config, batch_size=0)

    def test_max_epochs(self, kb, pos, neg, modes, config):
        res = run_coverage_parallel(kb, pos, neg, modes, config, p=2, seed=3, max_epochs=1)
        assert res.epochs <= 1


class TestFailedEpochExits:
    """An epoch can close without a rule two ways — the seed cannot be
    saturated, or the search finds nothing good — and both are ordinary
    closed epochs: under a fault plan each ends with the pulse that fills
    the log's cache counters (the saturation exit used to skip it)."""

    @staticmethod
    def _lowest_seed(candidates_mask, rng):
        return (candidates_mask & -candidates_mask).bit_length() - 1 if candidates_mask else None

    def _run(self, kb, pos, neg, modes, config, **kw):
        from repro.logic.parser import parse_term

        # no modeh covers son/2: drawn first (the lowest index), it cannot
        # be saturated
        seeds = [parse_term("son(ian, tom)"), *pos]
        return run_coverage_parallel(
            kb, seeds, neg, modes, config, p=2, batch_size=8, seed=3, max_epochs=2, **kw
        )

    def test_unsaturatable_seed_closes_an_ordinary_epoch(self, kb, pos, neg, modes, config, monkeypatch):
        from repro.fault.plan import FaultPlan

        monkeypatch.setattr("repro.parallel.coverage_parallel.select_seed", self._lowest_seed)
        plain = self._run(kb, pos, neg, modes, config)
        healed = self._run(kb, pos, neg, modes, config, fault_plan=FaultPlan(supervise=True))
        for res in (plain, healed):
            failed, learned = res.epoch_logs
            assert (failed.bag_size, failed.accepted) == (0, [])
            assert len(learned.accepted) == 1
        assert list(healed.theory) == list(plain.theory)
        assert all(l.cache_hits is None and l.cache_misses is None for l in plain.epoch_logs)
        assert all(
            isinstance(l.cache_hits, int) and isinstance(l.cache_misses, int)
            for l in healed.epoch_logs
        )


class TestGranularityEffect:
    def test_fine_grain_more_rounds_than_coarse(self, kb, pos, neg, modes, config):
        """batch_size=1 (Konstantopoulos) must send many more evaluate
        rounds than batch_size=32 (Graham et al.)."""
        fine = run_coverage_parallel(kb, pos, neg, modes, config, p=2, batch_size=1, seed=3, max_epochs=1)
        coarse = run_coverage_parallel(kb, pos, neg, modes, config, p=2, batch_size=32, seed=3, max_epochs=1)
        assert fine.comm.messages > coarse.comm.messages

    def test_fine_grain_slower(self, kb, pos, neg, modes, config):
        """Latency-bound fine-grained evaluation is slower — the paper's
        explanation for Konstantopoulos' poor results."""
        fine = run_coverage_parallel(kb, pos, neg, modes, config, p=2, batch_size=1, seed=3, max_epochs=2)
        coarse = run_coverage_parallel(kb, pos, neg, modes, config, p=2, batch_size=32, seed=3, max_epochs=2)
        assert fine.seconds > coarse.seconds

    def test_p2mdie_beats_fine_grained_baseline(self, kb, pos, neg, modes, config):
        """The paper's headline comparison: pipelined data-parallelism
        outperforms fine-grained coverage parallelism."""
        p2 = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3)
        base = run_coverage_parallel(kb, pos, neg, modes, config, p=3, batch_size=1, seed=3)
        assert p2.seconds < base.seconds
