"""Tests for the extensions beyond the paper: inter-epoch repartitioning
(§4.1's rejected alternative) and heterogeneous-cluster cost modelling."""

import pytest

from repro.cluster.costmodel import OpsCostModel, PerRankCostModel
from repro.cluster.message import Tag
from repro.ilp.theory import accuracy
from repro.logic.engine import Engine
from repro.parallel.p2mdie import run_p2mdie


class TestRepartitioning:
    def test_still_learns(self, kb, pos, neg, modes, config):
        res = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, repartition_each_epoch=True)
        assert res.uncovered == 0
        eng = Engine(kb, config.engine_budget())
        assert accuracy(eng, res.theory, pos, neg) == 100.0

    def test_deterministic(self, kb, pos, neg, modes, config):
        a = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, repartition_each_epoch=True)
        b = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, repartition_each_epoch=True)
        assert list(a.theory) == list(b.theory)
        assert a.seconds == b.seconds

    def test_costs_more_communication_when_multi_epoch(self, kb, pos, neg, modes, config):
        """The paper's §4.1 claim: repartitioning has 'a considerable cost
        in message communication'.  Force several epochs with width=1."""
        base = run_p2mdie(kb, pos, neg, modes, config, p=3, width=1, seed=1)
        repart = run_p2mdie(
            kb, pos, neg, modes, config, p=3, width=1, seed=1, repartition_each_epoch=True
        )
        if repart.epochs > 1:
            assert repart.comm.bytes_total > base.comm.bytes_total

    def test_single_epoch_identical_to_base(self, kb, pos, neg, modes, config):
        """Repartitioning only happens from epoch 2 on; a one-epoch run is
        byte-for-byte identical."""
        base = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, max_epochs=1)
        repart = run_p2mdie(
            kb, pos, neg, modes, config, p=3, seed=3, max_epochs=1, repartition_each_epoch=True
        )
        assert base.comm.bytes_total == repart.comm.bytes_total
        assert list(base.theory) == list(repart.theory)

    def test_refuses_checkpoints(self, kb, pos, neg, modes, config, tmp_path):
        """A resumed run rebuilds each worker from its original partition,
        but a repartitioned run's workers held reshuffled subsets and drew
        their seeds over them: resuming one learned a different theory
        (mesh, p=3: [2, 2, 2, 1, 1, 0, 0, 0] accepted rules per epoch
        uninterrupted, [2, 2, 3, 1, 0, 0, 0] resumed from epoch 2).  The
        checkpoint records neither, so the combination is refused."""
        from repro.fault.checkpoint import checkpoint_path, load_checkpoint

        with pytest.raises(ValueError, match="repartitioning"):
            run_p2mdie(
                kb, pos, neg, modes, config, p=3, seed=3,
                repartition_each_epoch=True, checkpoint_dir=str(tmp_path / "r"),
            )
        assert not (tmp_path / "r").exists()
        run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, max_epochs=1, checkpoint_dir=str(tmp_path))
        resume = load_checkpoint(checkpoint_path(str(tmp_path), 1))
        with pytest.raises(ValueError, match="repartitioning"):
            run_p2mdie(
                kb, pos, neg, modes, config, p=3, seed=3, repartition_each_epoch=True, resume=resume
            )


class TestHeterogeneousCluster:
    def test_scales_validation(self):
        with pytest.raises(ValueError):
            PerRankCostModel(scales={1: 0})

    def test_uniform_when_no_scales(self):
        cm = PerRankCostModel(OpsCostModel(sec_per_op=1.0))
        assert cm.seconds_for_ops_at(3, 10) == 10.0

    def test_straggler_slows_run(self, kb, pos, neg, modes, config):
        fast = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3)
        slow_cm = PerRankCostModel(OpsCostModel(), scales={2: 4.0})
        slow = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, cost_model=slow_cm)
        assert slow.seconds > fast.seconds
        # but the learned theory is unchanged: timing never affects search
        assert list(slow.theory) == list(fast.theory)

    def test_straggler_bounded_by_its_scale(self, kb, pos, neg, modes, config):
        fast = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3)
        slow_cm = PerRankCostModel(OpsCostModel(), scales={2: 4.0})
        slow = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, cost_model=slow_cm)
        assert slow.seconds <= 4.0 * fast.seconds + 1.0
