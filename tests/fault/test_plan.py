"""FaultPlan: validation, defaults, emptiness semantics, per-rank views."""

import pytest

from helpers_fault import RUN_PLAN
from repro.fault.plan import (
    FaultPlan,
    MessageLoss,
    Straggler,
    WorkerCrash,
    WorkerJoin,
    normalize_plan,
)


class TestEvents:
    def test_crash_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            WorkerCrash(rank=1)
        with pytest.raises(ValueError):
            WorkerCrash(rank=1, on_recv=2, at_time=1.0)
        WorkerCrash(rank=1, on_recv=2)
        WorkerCrash(rank=1, at_time=0.5)

    def test_master_cannot_crash(self):
        with pytest.raises(ValueError):
            WorkerCrash(rank=0, on_recv=1)

    def test_on_recv_one_based(self):
        with pytest.raises(ValueError):
            WorkerCrash(rank=1, on_recv=0)

    def test_straggler_factor_bound(self):
        with pytest.raises(ValueError):
            Straggler(rank=1, factor=0.5)

    def test_loss_nth_one_based(self):
        with pytest.raises(ValueError):
            MessageLoss(src=0, dst=1, nth=0)

    def test_join_epoch_one_based(self):
        with pytest.raises(ValueError):
            WorkerJoin(rank=4, epoch=0)


class TestEmptiness:
    def test_empty_plan_normalizes_to_none(self):
        assert FaultPlan().empty
        assert normalize_plan(FaultPlan()) is None
        assert normalize_plan(None) is None

    def test_supervise_makes_plan_non_empty(self):
        plan = FaultPlan(supervise=True)
        assert not plan.empty
        assert normalize_plan(plan) is plan

    def test_any_event_makes_plan_non_empty(self):
        assert not FaultPlan(crashes=(WorkerCrash(rank=1, on_recv=1),)).empty
        assert not FaultPlan(stragglers=(Straggler(rank=1, factor=2.0),)).empty
        assert not FaultPlan(losses=(MessageLoss(src=0, dst=1),)).empty
        assert not FaultPlan(joins=(WorkerJoin(rank=4, epoch=2),)).empty


class TestSerialization:
    def test_defaults(self):
        plan = FaultPlan.from_json("{}")
        assert plan == FaultPlan()
        assert plan.timeout == 10.0


class TestViews:
    def test_per_rank_views(self):
        assert RUN_PLAN.for_rank(2).crash.on_recv == 3
        assert RUN_PLAN.for_rank(9).crash is None
        assert RUN_PLAN.for_rank(1).straggler.factor == 4.0
        assert RUN_PLAN.for_rank(2).straggler is None
        assert RUN_PLAN.for_rank(0).drops == {2: {2}}
        assert RUN_PLAN.for_rank(1).drops == {}
        assert RUN_PLAN.joins_at(2) == (WorkerJoin(rank=5, epoch=2),)
        assert RUN_PLAN.joins_at(3) == ()

    def test_drop_record_counts_the_link_and_names_the_loss(self):
        faults = RUN_PLAN.for_rank(0)
        assert faults.drop_record(0, 2, "rules", 1.5) is None  # link 0->2 #1
        rec = faults.drop_record(0, 2, "rules", 2.5)  # link 0->2 #2: dropped
        assert (rec.kind, rec.rank, rec.time, rec.detail) == ("drop", 0, 2.5, "->2 #2 tag=rules")
        assert faults.drop_record(0, 1, "rules", 3.0) is None  # other link
