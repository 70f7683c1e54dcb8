"""Tests for the heterogeneous cluster, an extension beyond the paper.

A slow rank is a fault plan straggler: the simulator multiplies that
rank's charged compute by the straggler's factor.  Stragglers change
virtual time, never the learned theory.
"""

import pytest

from repro.fault.plan import FaultPlan, Straggler
from repro.parallel.p2mdie import run_p2mdie


def _slowed(rank: int, factor: float) -> FaultPlan:
    # The timeout is far above any run here, so no slow rank is declared dead.
    return FaultPlan(stragglers=(Straggler(rank=rank, factor=factor),), timeout=60.0)


class TestHeterogeneousCluster:
    def test_scales_validation(self):
        for factor in (0.0, 0.5):
            with pytest.raises(ValueError, match="factor"):
                Straggler(rank=1, factor=factor)

    def test_uniform_when_no_scales(self, kb, pos, neg, modes, config):
        """A factor of 1 scales nothing.  Any plan runs the fault protocol,
        so the unscaled run to match is the supervised one without faults."""
        base = run_p2mdie(
            kb, pos, neg, modes, config, p=3, seed=3,
            fault_plan=FaultPlan(supervise=True, timeout=60.0),
        )
        for rank in (1, 2, 3):
            same = run_p2mdie(
                kb, pos, neg, modes, config, p=3, seed=3, fault_plan=_slowed(rank, 1.0)
            )
            assert same.seconds == base.seconds
            assert same.comm.bytes_by_tag == base.comm.bytes_by_tag
            assert list(same.theory) == list(base.theory)

    def test_straggler_slows_run(self, kb, pos, neg, modes, config):
        fast = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3)
        slow = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, fault_plan=_slowed(2, 4.0))
        assert slow.seconds > fast.seconds
        # but the learned theory is unchanged: timing never affects search
        assert list(slow.theory) == list(fast.theory)

    def test_straggler_bounded_by_its_scale(self, kb, pos, neg, modes, config):
        fast = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3)
        slow = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, fault_plan=_slowed(2, 4.0))
        assert slow.seconds <= 4.0 * fast.seconds + 1.0

    def test_late_straggler_slows_less_than_early_one(self, kb, pos, neg, modes, config):
        """A rank that turns slow part-way through a run costs no more than
        one slow from the start."""
        base = run_p2mdie(
            kb, pos, neg, modes, config, p=3, seed=3,
            fault_plan=FaultPlan(supervise=True, timeout=60.0),
        )
        early = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, fault_plan=_slowed(2, 4.0))
        late_plan = FaultPlan(
            stragglers=(Straggler(rank=2, factor=4.0, after_time=base.seconds / 2),),
            timeout=60.0,
        )
        late = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, fault_plan=late_plan)
        assert base.seconds <= late.seconds <= early.seconds
        assert list(late.theory) == list(early.theory) == list(base.theory)

    def test_straggler_after_the_run_changes_nothing(self, kb, pos, neg, modes, config):
        base = run_p2mdie(
            kb, pos, neg, modes, config, p=3, seed=3,
            fault_plan=FaultPlan(supervise=True, timeout=60.0),
        )
        never_plan = FaultPlan(
            stragglers=(Straggler(rank=2, factor=4.0, after_time=2 * base.seconds),),
            timeout=60.0,
        )
        never = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3, fault_plan=never_plan)
        assert never.seconds == base.seconds
        assert never.comm.bytes_by_tag == base.comm.bytes_by_tag

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_any_slow_rank_changes_time_not_theory(self, kb, pos, neg, modes, config, rank):
        fast = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3)
        slow = run_p2mdie(
            kb, pos, neg, modes, config, p=3, seed=3, fault_plan=_slowed(rank, 3.0)
        )
        assert fast.seconds <= slow.seconds <= 3.0 * fast.seconds
        assert list(slow.theory) == list(fast.theory)
        assert [log.accepted for log in slow.epoch_logs] == [
            log.accepted for log in fast.epoch_logs
        ]
