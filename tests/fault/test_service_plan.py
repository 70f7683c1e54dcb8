"""ServiceFaultPlan: validation, parsing, injector trigger counters."""

import pytest

from repro.fault.plan import normalize_plan
from repro.fault.service import (
    ConnReset,
    InjectedFault,
    LeaseFault,
    PersistFault,
    ServiceFaultInjector,
    ServiceFaultPlan,
    SlotCrash,
)


class TestEvents:
    def test_counters_are_one_based(self):
        with pytest.raises(ValueError):
            ConnReset(on_request=0)
        with pytest.raises(ValueError):
            LeaseFault(on_lease=0)
        with pytest.raises(ValueError):
            SlotCrash(on_job=0)
        with pytest.raises(ValueError):
            PersistFault(on_write=0)

    def test_reset_when_validated(self):
        ConnReset(on_request=1, when="before")
        ConnReset(on_request=1, when="after")
        with pytest.raises(ValueError):
            ConnReset(on_request=1, when="sometime")

    def test_lease_modes(self):
        LeaseFault(on_lease=1, mode="fail")
        LeaseFault(on_lease=1, mode="slow", delay=0.1)
        with pytest.raises(ValueError):
            LeaseFault(on_lease=1, mode="wobble")
        with pytest.raises(ValueError):
            LeaseFault(on_lease=1, mode="slow", delay=0.0)

    def test_persist_targets(self):
        PersistFault(on_write=1, target="job")
        PersistFault(on_write=1, target="registry")
        with pytest.raises(ValueError):
            PersistFault(on_write=1, target="everything")


class TestPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown service fault"):
            ServiceFaultPlan.from_json('{"events": [{"kind": "gremlin"}]}')

    def test_normalize(self):
        assert normalize_plan(None) is None
        assert normalize_plan(ServiceFaultPlan()) is None
        plan = ServiceFaultPlan(crashes=(SlotCrash(on_job=1),))
        assert normalize_plan(plan) is plan

    def test_repo_example_plans_parse(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        for name in ("service_chaos.json", "service_resets.json"):
            plan = ServiceFaultPlan.load(str(root / "examples" / "faultplans" / name))
            assert not plan.empty


class TestInjector:
    def test_request_counter_global_and_per_op(self):
        plan = ServiceFaultPlan(
            resets=(
                ConnReset(on_request=2, op="query"),
                ConnReset(on_request=3),
            )
        )
        inj = ServiceFaultInjector(plan)
        assert inj.on_request("submit") is None      # global #1, submit #1
        assert inj.on_request("query") is None       # global #2, query #1
        hit = inj.on_request("status")               # global #3 -> global reset
        assert hit is not None and hit.op is None
        hit = inj.on_request("query")                # query #2 -> op reset
        assert hit is not None and hit.op == "query"
        assert inj.on_request("query") is None
        assert len(inj.log) == 2

    def test_lease_and_job_counters(self):
        plan = ServiceFaultPlan(
            leases=(LeaseFault(on_lease=2, mode="slow", delay=0.1),),
            crashes=(SlotCrash(on_job=2),),
        )
        inj = ServiceFaultInjector(plan)
        assert inj.on_lease() is None
        fault = inj.on_lease()
        assert fault is not None and fault.mode == "slow"
        assert inj.on_lease() is None
        assert not inj.on_job_pick()
        assert inj.on_job_pick()
        assert not inj.on_job_pick()

    def test_persist_hook_targets_independent(self):
        plan = ServiceFaultPlan(persist=(PersistFault(on_write=2, target="job"),))
        inj = ServiceFaultInjector(plan)
        assert inj.persist_hook("registry") is None  # no registry events at all
        hook = inj.persist_hook("job")
        assert hook is not None
        hook("first.tmp")  # write #1: survives
        with pytest.raises(InjectedFault):
            hook("second.tmp")
        hook("third.tmp")  # only the Nth write fails

    def test_snapshot_counts(self):
        inj = ServiceFaultInjector(
            ServiceFaultPlan(crashes=(SlotCrash(on_job=1),))
        )
        inj.on_request("query")
        inj.on_lease()
        inj.on_job_pick()
        snap = inj.snapshot()
        assert snap["requests"] == 1
        assert snap["leases"] == 1
        assert snap["jobs_picked"] == 1
        assert len(snap["injected"]) == 1
