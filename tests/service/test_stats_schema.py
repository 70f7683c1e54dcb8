"""Schema pin for the ``stats`` op: key names and value types.

Operators' dashboards, the chaos harness, and the CI smoke scrapes all
key off these names.  Renaming or retyping a stats field is a breaking
change for every consumer — this module is the tripwire that makes such
a change visible in review instead of in production.
"""

import pytest

from repro.fault.service import ServiceFaultPlan, SlotCrash
from repro.service import Service


@pytest.fixture
def service(tmp_path):
    svc = Service(
        slots=2,
        state_dir=str(tmp_path / "jobs"),
        registry_dir=str(tmp_path / "registry"),
    )
    yield svc
    svc.close()


def _stats(svc):
    resp = svc.handle({"op": "stats"})
    assert resp["ok"]
    return resp


class TestTopLevel:
    def test_sections_present(self, service):
        stats = _stats(service)
        assert {"ok", "slots", "jobs", "query", "resilience", "metrics"} <= set(stats)

    def test_no_faults_section_without_injector(self, service):
        assert "faults" not in _stats(service)

    def test_slots_and_jobs(self, service):
        stats = _stats(service)
        assert isinstance(stats["slots"], int)
        assert isinstance(stats["jobs"], dict)
        for state, n in stats["jobs"].items():
            assert isinstance(state, str)
            assert isinstance(n, int)


class TestQuerySection:
    #: name -> type of every pinned query-engine counter.
    PINNED = {
        "prepared_hits": int,
        "prepared_misses": int,
        "prepared_entries": int,
        "batches": int,
        "streams_started": int,
        "streams_cancelled": int,
    }

    def test_keys_and_types(self, service):
        q = _stats(service)["query"]
        assert set(q) == set(self.PINNED)
        for key, typ in self.PINNED.items():
            assert isinstance(q[key], typ), f"query.{key} is {type(q[key]).__name__}"


class TestResilienceSection:
    PINNED = {
        "draining": bool,
        "persist_errors": int,
        "slot_crashes": int,
        "quarantined": list,
        "queued": int,
    }

    def test_keys_and_types(self, service):
        r = _stats(service)["resilience"]
        assert set(r) == set(self.PINNED)
        for key, typ in self.PINNED.items():
            assert isinstance(r[key], typ), f"resilience.{key} is {type(r[key]).__name__}"


class TestFaultsSection:
    PINNED = {
        "requests": int,
        "leases": int,
        "jobs_picked": int,
        "writes": dict,
        "injected": list,
    }

    def test_keys_and_types(self, tmp_path):
        plan = ServiceFaultPlan(crashes=(SlotCrash(on_job=99),))
        svc = Service(slots=1, state_dir=str(tmp_path / "jobs"), fault_plan=plan)
        try:
            f = _stats(svc)["faults"]
        finally:
            svc.close()
        assert set(f) == set(self.PINNED)
        for key, typ in self.PINNED.items():
            assert isinstance(f[key], typ), f"faults.{key} is {type(f[key]).__name__}"


class TestMetricsSection:
    def test_shape(self, service):
        service.handle({"op": "ping"})
        m = _stats(service)["metrics"]
        assert isinstance(m, dict)
        # Gauges the scrape path always refreshes before snapshotting.
        for name in (
            "repro_scheduler_slots",
            "repro_scheduler_slots_busy",
            "repro_jobs_queued",
            "repro_draining",
            "repro_persist_errors",
            "repro_slot_crashes",
            "repro_quarantined_records",
        ):
            assert name in m, f"missing gauge {name}"
            assert isinstance(m[name], (int, float))
        # Request accounting pushed by handle(); labelled metrics nest.
        assert m["repro_requests_total"]["op=ping"] >= 1
        hist = m["repro_request_latency_seconds"]["op=ping"]
        assert set(hist) == {"count", "sum", "max", "mean", "buckets"}
        assert hist["count"] >= 1

    def test_metrics_op_matches_stats_section(self, service):
        service.handle({"op": "ping"})  # seed the request counters
        resp = service.handle({"op": "metrics"})
        assert resp["ok"]
        assert set(resp["metrics"]) == set(_stats(service)["metrics"])
