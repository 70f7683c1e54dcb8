"""Service-tier resilience: deadlines, idempotency, shedding, healing, drain.

Every scenario here injects a *deterministic* service fault (or none)
and asserts the two promises of the resilience work: **answers never
change** (coverage bitsets stay bit-identical, jobs never duplicate or
corrupt) and **failures surface structurally** (coded errors with
``retry_after`` hints, friendly client exceptions) instead of as hangs
or stack traces.
"""

import os
import threading
import time

import pytest

from repro.fault.service import (
    ConnReset,
    LeaseFault,
    PersistFault,
    ServiceFaultPlan,
    SlotCrash,
)
from repro.service import JobSpec, Service, TheoryRegistry
from repro.service.errors import RETRYABLE_CODES
from repro.service import ServiceClient, serve


def start_server(tmp_path, slots=2, publish=None, **kwargs):
    """serve() on an ephemeral port; returns (port, thread, server).

    ``publish`` is an optional ``(name, outcome)`` pair registered
    before the server starts, so query tests have a theory to hit.
    """
    if publish is not None:
        name, outcome = publish
        TheoryRegistry(str(tmp_path / "registry")).publish(
            name, outcome.theory, config_sig=outcome.config_sig,
            provenance={"dataset": "trains", "seed": "0", "scale": "small"},
        )
    ready = threading.Event()
    box = {}

    def on_ready(server):
        box["server"] = server
        ready.set()

    thread = threading.Thread(
        target=serve,
        kwargs=dict(
            port=0,
            slots=slots,
            state_dir=str(tmp_path / "jobs"),
            registry_dir=str(tmp_path / "registry"),
            ready=on_ready,
            **kwargs,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10), "server did not come up"
    return box["server"].port, thread, box["server"]


def shutdown(port, thread):
    with ServiceClient(port=port) as c:
        c.request({"op": "shutdown"})
    thread.join(timeout=15)


class TestDeadlines:
    def test_expired_deadline_rejected(self, tmp_path, trains, trains_theory):
        port, thread, _ = start_server(tmp_path, publish=("t", trains_theory))
        try:
            with ServiceClient(port=port) as c:
                resp = c.query("t", [str(trains.pos[0])], deadline_ms=0.0001)
                assert not resp["ok"]
                assert resp["code"] == "deadline_exceeded"
        finally:
            shutdown(port, thread)

    def test_invalid_deadline_is_bad_request(self, tmp_path):
        port, thread, _ = start_server(tmp_path)
        try:
            with ServiceClient(port=port) as c:
                resp = c.request({"op": "ping", "deadline_ms": "tomorrow"})
                assert not resp["ok"] and resp["code"] == "bad_request"
                resp = c.request({"op": "ping", "deadline_ms": -5})
                assert not resp["ok"] and resp["code"] == "bad_request"
        finally:
            shutdown(port, thread)

    def test_generous_deadline_changes_nothing(self, tmp_path, trains, trains_theory):
        port, thread, _ = start_server(tmp_path, publish=("t", trains_theory))
        examples = [str(e) for e in trains.pos + trains.neg]
        try:
            with ServiceClient(port=port) as c:
                plain = c.query("t", examples)
                dead = c.query("t", examples, deadline_ms=60_000)
                assert dead["ok"]
                assert dead["covered"] == plain["covered"]
                assert dead["n"] == plain["n"]
        finally:
            shutdown(port, thread)

    def test_deadline_cancels_mid_stream(self, tmp_path, trains, trains_theory):
        # Two slow leases (0.4 s each, spans run in sequence) guarantee
        # the 150 ms budget dies mid-stream: it is noticed at the next
        # span boundary, after the first frame went out.  The error must
        # be structured and the connection must stay usable.
        plan = ServiceFaultPlan(
            leases=(
                LeaseFault(on_lease=1, mode="slow", delay=0.4),
                LeaseFault(on_lease=2, mode="slow", delay=0.4),
            )
        )
        port, thread, _ = start_server(
            tmp_path, publish=("t", trains_theory),
            fault_plan=plan,
        )
        examples = [str(e) for e in trains.pos + trains.neg]
        frames = []
        try:
            with ServiceClient(port=port) as c:
                with pytest.raises(RuntimeError, match="deadline"):
                    for frame in c.query_stream("t", examples, shards=2, deadline_ms=150):
                        frames.append(frame["frame"])
                assert frames == ["shard"]  # one span late at most, never an end frame
                assert c.request({"op": "ping"})["ok"]  # connection survived
                assert c.request({"op": "stats"})["faults"]["leases"] == 1
        finally:
            shutdown(port, thread)


class TestIdempotency:
    def test_duplicate_submit_deduplicated(self, tmp_path):
        svc = Service(slots=1, state_dir=str(tmp_path / "jobs"))
        try:
            spec = {"dataset": "trains", "algo": "mdie"}
            first = svc.handle(
                {"op": "submit", "spec": spec, "idempotency_key": "k1"}
            )
            again = svc.handle(
                {"op": "submit", "spec": spec, "idempotency_key": "k1"}
            )
            other = svc.handle(
                {"op": "submit", "spec": spec, "idempotency_key": "k2"}
            )
            assert first["ok"] and again["ok"]
            assert again["job"] == first["job"]
            assert again.get("deduplicated") is True
            assert "deduplicated" not in first
            assert other["job"] != first["job"]
            assert len(svc.handle({"op": "jobs"})["jobs"]) == 2
        finally:
            svc.close()

    def test_bad_idempotency_key_rejected(self, tmp_path):
        svc = Service(slots=1)
        try:
            resp = svc.handle(
                {
                    "op": "submit",
                    "spec": {"dataset": "trains"},
                    "idempotency_key": 7,
                }
            )
            assert not resp["ok"] and resp["code"] == "bad_request"
        finally:
            svc.close()

    def test_dedup_survives_restart(self, tmp_path):
        state = str(tmp_path / "jobs")
        svc = Service(slots=1, state_dir=state)
        job = svc.handle(
            {
                "op": "submit",
                "spec": {"dataset": "trains", "algo": "mdie"},
                "idempotency_key": "sticky",
            }
        )["job"]
        svc.handle({"op": "wait", "job": job, "timeout": 120})
        svc.close()
        svc = Service(slots=1, state_dir=state)
        try:
            resp = svc.handle(
                {
                    "op": "submit",
                    "spec": {"dataset": "trains", "algo": "mdie"},
                    "idempotency_key": "sticky",
                }
            )
            assert resp["job"] == job and resp["deduplicated"] is True
            assert len(svc.handle({"op": "jobs"})["jobs"]) == 1
        finally:
            svc.close()


class TestAdmission:
    def test_queue_depth_shed(self, tmp_path):
        from repro.service.errors import Overloaded
        from repro.service.scheduler import JobScheduler

        sched = JobScheduler(
            slots=1, state_dir=str(tmp_path / "jobs"), max_queue=2, start=False
        )
        try:
            sched.submit(JobSpec(dataset="trains"))
            sched.submit(JobSpec(dataset="trains", seed=1))
            with pytest.raises(Overloaded) as err:
                sched.submit(JobSpec(dataset="trains", seed=2))
            assert err.value.retry_after > 0
        finally:
            sched.close(drain=False)

    def test_shed_submit_carries_code_and_hint(self, tmp_path):
        svc = Service(slots=1, state_dir=str(tmp_path / "jobs"), max_queue=1)
        svc.scheduler.close(drain=False)  # freeze the queue: nothing drains
        svc.scheduler._closed = False  # accept submits against the frozen queue
        try:
            svc.handle({"op": "submit", "spec": {"dataset": "trains"}})
            resp = svc.handle({"op": "submit", "spec": {"dataset": "trains", "seed": 1}})
            assert not resp["ok"]
            assert resp["code"] == "overloaded"
            assert resp["code"] in RETRYABLE_CODES
            assert resp["retry_after"] > 0
        finally:
            svc.scheduler._closed = True

    def test_inflight_cap_sheds_and_retry_absorbs(
        self, tmp_path, trains, trains_theory
    ):
        # One 0.6 s two-span query fills the single inflight slot; a bare
        # client gets shed with a structured hint, a retrying client gets
        # its answer once the slot frees up.
        plan = ServiceFaultPlan(
            leases=(LeaseFault(on_lease=1, mode="slow", delay=0.6),)
        )
        port, thread, _ = start_server(
            tmp_path, publish=("t", trains_theory),
            fault_plan=plan, max_inflight=1,
        )
        examples = [str(e) for e in trains.pos]
        shed, answered = {}, {}

        def slow_query():
            with ServiceClient(port=port) as c:
                answered["slow"] = c.query("t", examples, shards=2)

        try:
            t = threading.Thread(target=slow_query)
            t.start()
            time.sleep(0.2)  # let the slow query occupy the slot
            with ServiceClient(port=port) as c:
                shed["resp"] = c.request({"op": "ping"})
            with ServiceClient(port=port, retries=6, backoff=0.05) as c:
                answered["retry"] = c.request_with_retry({"op": "ping"})
                retried = c.retried
            t.join(timeout=30)
            assert not shed["resp"]["ok"]
            assert shed["resp"]["code"] == "overloaded"
            assert shed["resp"]["retry_after"] > 0
            assert answered["retry"]["ok"] and retried >= 1
            assert answered["slow"]["ok"]
        finally:
            shutdown(port, thread)


class TestSelfHealing:
    def test_slot_crash_heals_without_duplication(self, tmp_path):
        plan = ServiceFaultPlan(crashes=(SlotCrash(on_job=1),))
        svc = Service(slots=1, state_dir=str(tmp_path / "jobs"), fault_plan=plan)
        try:
            resp = svc.handle(
                {"op": "submit", "spec": {"dataset": "trains", "algo": "mdie"}}
            )
            final = svc.handle({"op": "wait", "job": resp["job"], "timeout": 120})
            assert final["state"] == "done"
            stats = svc.handle({"op": "stats"})
            assert stats["resilience"]["slot_crashes"] == 1
            assert len(svc.handle({"op": "jobs"})["jobs"]) == 1
            assert stats["faults"]["jobs_picked"] >= 2  # crash pick + heal pick
        finally:
            svc.close()

    def test_torn_write_never_corrupts_the_record(self, tmp_path):
        plan = ServiceFaultPlan(persist=(PersistFault(on_write=1, target="job"),))
        state = str(tmp_path / "jobs")
        svc = Service(slots=1, state_dir=state, fault_plan=plan)
        job = svc.handle(
            {"op": "submit", "spec": {"dataset": "trains", "algo": "mdie"}}
        )["job"]
        svc.handle({"op": "wait", "job": job, "timeout": 120})
        stats = svc.handle({"op": "stats"})
        svc.close()
        assert stats["resilience"]["persist_errors"] >= 1
        # Recovery over the same dir: the record decodes (the torn write
        # hit only the tmp file) and nothing lands in quarantine.
        svc = Service(slots=1, state_dir=state)
        try:
            recovered = svc.handle({"op": "jobs"})["jobs"]
            assert [j["job"] for j in recovered] == [job]
            assert recovered[0]["state"] == "done"
            assert svc.handle({"op": "stats"})["resilience"]["quarantined"] == []
        finally:
            svc.close()

    def test_corrupt_record_quarantined_not_fatal(self, tmp_path):
        state = str(tmp_path / "jobs")
        svc = Service(slots=1, state_dir=state)
        job = svc.handle(
            {"op": "submit", "spec": {"dataset": "trains", "algo": "mdie"}}
        )["job"]
        svc.handle({"op": "wait", "job": job, "timeout": 120})
        svc.close()
        os.makedirs(os.path.join(state, "job-damaged"))
        with open(os.path.join(state, "job-damaged", "job.rec"), "wb") as fh:
            fh.write(b"\xde\xad\xbe\xef not a record")
        svc = Service(slots=1, state_dir=state)
        try:
            stats = svc.handle({"op": "stats"})
            assert stats["resilience"]["quarantined"] == ["job-damaged"]
            assert [j["job"] for j in svc.handle({"op": "jobs"})["jobs"]] == [job]
        finally:
            svc.close()
        assert os.path.exists(
            os.path.join(state, "job-damaged", "job.rec.corrupt")
        )


class TestClientRetry:
    def test_resets_absorbed_and_submits_never_duplicate(self, tmp_path):
        plan = ServiceFaultPlan(
            resets=(
                ConnReset(on_request=2, op="ping", when="before"),
                ConnReset(on_request=3, op="ping", when="after"),
                ConnReset(on_request=1, op="submit", when="after"),
            )
        )
        port, thread, _ = start_server(tmp_path, fault_plan=plan)
        try:
            with ServiceClient(port=port, retries=5, backoff=0.02) as c:
                assert c.request_with_retry({"op": "ping"})["ok"]  # request 1
                # Request 2 dies before the handler, its retry (request 3)
                # after it; both must be absorbed transparently.
                assert c.request_with_retry({"op": "ping"})["ok"]
                assert c.reconnects >= 2
                # The lost-response submit: work done, answer dropped.  The
                # generated idempotency key makes the resend safe.
                job = c.submit(JobSpec(dataset="trains", algo="mdie"))
                jobs = c.request({"op": "jobs"})["jobs"]
                assert [j["job"] for j in jobs] == [job]
        finally:
            shutdown(port, thread)

    def test_lost_response_without_key_is_not_resent(self, tmp_path):
        plan = ServiceFaultPlan(
            resets=(ConnReset(on_request=1, op="submit", when="after"),)
        )
        port, thread, _ = start_server(tmp_path, fault_plan=plan)
        try:
            with ServiceClient(port=port) as c:  # retries=0: keyless submit
                with pytest.raises(ConnectionError) as err:
                    c.submit(JobSpec(dataset="trains", algo="mdie"))
                assert "repro:" in str(err.value)
                assert "idempotent" in str(err.value)
        finally:
            shutdown(port, thread)

    def test_friendly_error_text(self):
        friendly = ServiceClient._friendly(ConnectionResetError(), "lost it")
        assert str(friendly).startswith("repro: lost it (connection reset)")
        friendly = ServiceClient._friendly(BrokenPipeError(), "lost it")
        assert "broken pipe" in str(friendly)

    def test_backoff_deterministic_capped_and_hinted(self, tmp_path):
        port, thread, _ = start_server(tmp_path)
        try:
            def mk():
                return ServiceClient(
                    port=port, retries=3, backoff=0.1, backoff_max=0.5, retry_seed=7
                )

            with mk() as a, mk() as b:
                seq_a = [a._backoff_delay(i) for i in range(6)]
                seq_b = [b._backoff_delay(i) for i in range(6)]
                assert seq_a == seq_b  # same seed, same jitter
                assert max(seq_a) <= 0.5 * 1.5  # cap * max jitter
                assert b._backoff_delay(0, hint=5.0) >= 5.0  # server hint wins
        finally:
            shutdown(port, thread)


class TestGracefulDrain:
    def test_drain_stops_listener_and_keeps_state(self, tmp_path):
        port, thread, server = start_server(tmp_path, slots=1)
        with ServiceClient(port=port) as c:
            job = c.submit(JobSpec(dataset="trains", algo="mdie"))
            c.wait(job, timeout=120)
        server.initiate_drain()
        thread.join(timeout=30)
        assert not thread.is_alive(), "drain did not stop the server"
        with pytest.raises(OSError):
            ServiceClient(port=port, timeout=2)  # listener is gone
        # The drained state dir recovers cleanly.
        svc = Service(slots=1, state_dir=str(tmp_path / "jobs"))
        try:
            jobs = svc.handle({"op": "jobs"})["jobs"]
            assert [j["job"] for j in jobs] == [job]
            assert jobs[0]["state"] == "done"
        finally:
            svc.close()

    def test_draining_service_rejects_submits(self, tmp_path):
        svc = Service(slots=1, state_dir=str(tmp_path / "jobs"))
        try:
            svc.draining = True
            resp = svc.handle({"op": "submit", "spec": {"dataset": "trains"}})
            assert not resp["ok"]
            assert resp["code"] == "shutting_down"
            assert resp["retry_after"] > 0
            assert svc.handle({"op": "ping"})["ok"]  # reads still served
        finally:
            svc.draining = False
            svc.close()
