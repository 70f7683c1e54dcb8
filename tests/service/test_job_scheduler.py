"""JobScheduler: queueing, priorities, cancellation, preemption, recovery."""

import threading
import time

import pytest

from repro.service import JobScheduler, JobSpec, SchedulerError, Service, run_job
from repro.service.errors import ShuttingDown


def wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestQueueing:
    def test_jobs_run_and_match_direct_execution(self, trains):
        with JobScheduler(slots=2) as sched:
            spec = JobSpec(dataset="trains", algo="p2mdie", p=2, seed=0)
            job = sched.submit(spec)
            status = sched.wait(job, timeout=120)
            assert status["state"] == "done"
            outcome = sched.result(job)
        direct = run_job(spec)
        assert list(outcome.theory) == list(direct.theory)
        assert outcome.epochs == direct.epochs

    def test_priority_order_with_fifo_ties(self):
        # One slot, staged start: submission order is b, c, a but priority
        # must run a first; b and c tie and stay FIFO.
        sched = JobScheduler(slots=1, start=False)
        order = []
        b = sched.submit(JobSpec(dataset="trains", algo="mdie", priority=0))
        c = sched.submit(JobSpec(dataset="trains", algo="mdie", priority=0))
        a = sched.submit(JobSpec(dataset="trains", algo="mdie", priority=5))
        orig = sched._execute

        def tracking_execute(job):
            order.append(job.record.job_id)
            return orig(job)

        sched._execute = tracking_execute
        sched.start()
        sched.wait_all(timeout=120)
        sched.close()
        assert order == [a, b, c]

    def test_unknown_job_raises(self):
        with JobScheduler(slots=1) as sched:
            with pytest.raises(SchedulerError, match="unknown job"):
                sched.status("job-9999")

    def test_failed_job_records_error(self, monkeypatch):
        import repro.service.scheduler as sched_mod

        def boom(spec, **kw):
            raise RuntimeError("synthetic job failure")

        monkeypatch.setattr(sched_mod, "run_job", boom)
        sched = JobScheduler(slots=1)
        job = sched.submit(JobSpec(dataset="trains"))
        status = sched.wait(job, timeout=60)
        assert status["state"] == "failed"
        assert "synthetic job failure" in status["error"]
        with pytest.raises(SchedulerError, match="failed"):
            sched.result(job)
        sched.close()

    def test_submit_after_close_raises(self):
        sched = JobScheduler(slots=1)
        sched.close()
        with pytest.raises(SchedulerError, match="closed"):
            sched.submit(JobSpec(dataset="trains"))

    def test_result_of_unfinished_job_raises(self):
        sched = JobScheduler(slots=1, start=False)
        job = sched.submit(JobSpec(dataset="trains"))
        with pytest.raises(SchedulerError, match="not done"):
            sched.result(job)
        sched.close(drain=False)


class TestWaitersAtClose:
    """Once close() has joined every slot, no job changes state any more:
    a blocked wait returns then instead of sitting out its timeout."""

    @staticmethod
    def parked(call):
        """Run ``call`` on a thread; the box gets its result or exception."""
        box = {}

        def run():
            try:
                box["result"] = call()
            except BaseException as exc:  # noqa: BLE001 - surfaced via the box
                box["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, box

    def test_a_wait_on_a_queued_job_ends_with_the_close(self):
        sched = JobScheduler(slots=1, start=False)
        job = sched.submit(JobSpec(dataset="trains", algo="mdie"))
        thread, box = self.parked(lambda: sched.wait(job, timeout=60))
        time.sleep(0.1)
        sched.close(drain=False)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(box.get("error"), ShuttingDown)
        assert sched.status(job)["state"] == "queued"

    def test_wait_all_ends_with_the_close(self):
        sched = JobScheduler(slots=1, start=False)
        sched.submit(JobSpec(dataset="trains", algo="mdie"))
        thread, box = self.parked(lambda: sched.wait_all(timeout=60))
        time.sleep(0.1)
        sched.close(drain=False)
        thread.join(timeout=5)
        assert isinstance(box.get("error"), ShuttingDown)

    def test_a_job_that_ends_during_the_close_is_reported_as_it_ended(self):
        sched = JobScheduler(slots=1, start=False)
        started = threading.Event()
        orig = sched._execute

        def slow_execute(job):
            started.set()
            time.sleep(0.3)
            return orig(job)

        sched._execute = slow_execute
        job = sched.submit(JobSpec(dataset="trains", algo="mdie"))
        sched.start()
        assert started.wait(timeout=30)
        thread, box = self.parked(lambda: sched.wait(job, timeout=120))
        sched.close(drain=False)
        thread.join(timeout=5)
        assert box["result"]["state"] == "done"

    def test_a_wait_op_answers_shutting_down_when_the_service_drains(self):
        service = Service(slots=1)
        release = threading.Event()
        orig = service.scheduler._execute

        def gated_execute(job):
            release.wait(timeout=30)
            return orig(job)

        service.scheduler._execute = gated_execute
        first = service.scheduler.submit(JobSpec(dataset="trains", algo="mdie"))
        second = service.scheduler.submit(JobSpec(dataset="trains", algo="mdie"))
        assert wait_for(lambda: service.scheduler.status(first)["state"] == "running")
        waits = [self.parked(lambda j=j: service.handle({"op": "wait", "job": j}))
                 for j in (first, second)]
        drain, _ = self.parked(service.drain)
        time.sleep(0.1)
        release.set()
        drain.join(timeout=60)
        for thread, _ in waits:
            thread.join(timeout=5)
        assert not any(t.is_alive() for t in (drain, *(t for t, _ in waits)))
        (_, done), (_, parked) = waits
        assert done["result"]["state"] == "done"
        assert parked["result"]["code"] == "shutting_down"
        assert service.scheduler.status(second)["state"] == "queued"

    def test_a_wait_after_the_close_does_not_block(self):
        sched = JobScheduler(slots=1, start=False)
        job = sched.submit(JobSpec(dataset="trains", algo="mdie"))
        sched.close(drain=False)
        with pytest.raises(ShuttingDown, match=job):
            sched.wait(job, timeout=5)


class TestCancellation:
    def test_cancel_queued_job(self):
        sched = JobScheduler(slots=1, start=False)
        job = sched.submit(JobSpec(dataset="trains"))
        assert sched.cancel(job) is True
        assert sched.status(job)["state"] == "cancelled"
        # A terminal job cannot be cancelled again.
        assert sched.cancel(job) is False
        sched.start()
        sched.close()

    def test_cancel_running_preemptible_job(self, tmp_path):
        sched = JobScheduler(slots=1, state_dir=str(tmp_path))
        job = sched.submit(JobSpec(dataset="krki", algo="mdie", seed=0, preemptible=True))
        assert wait_for(
            lambda: sched.status(job)["state"] == "running"
            and sched.status(job)["epochs_done"] >= 1
        )
        state = sched.status(job)["state"]
        if state == "running":  # not already finished under us
            assert sched.cancel(job) is True
            final = sched.wait(job, timeout=60)
            assert final["state"] in ("cancelled", "done")
        sched.close(drain=False)

    def test_cancel_running_non_preemptible_returns_false(self, krki):
        sched = JobScheduler(slots=1)
        job = sched.submit(JobSpec(dataset="krki", algo="mdie", seed=0))
        assert wait_for(lambda: sched.status(job)["state"] != "queued")
        if sched.status(job)["state"] == "running":
            assert sched.cancel(job) is False
        sched.wait(job, timeout=120)
        sched.close()


class TestPreemptionAndRecovery:
    def test_chunked_run_is_bit_identical(self, krki):
        spec = JobSpec(dataset="krki", algo="mdie", seed=1, preemptible=True)
        with JobScheduler(slots=1) as sched:
            job = sched.submit(spec)
            sched.wait(job, timeout=240)
            chunked = sched.result(job)
        direct = run_job(JobSpec(dataset="krki", algo="mdie", seed=1))
        assert list(chunked.theory) == list(direct.theory)
        assert chunked.uncovered == direct.uncovered

    def test_interrupt_and_recover_resumes_bit_identically(self, tmp_path):
        spec = JobSpec(dataset="krki", algo="p2mdie", p=2, seed=0, preemptible=True)
        sched = JobScheduler(slots=1, state_dir=str(tmp_path))
        job = sched.submit(spec)
        wait_for(lambda: sched.status(job)["epochs_done"] >= 1
                 or sched.status(job)["state"] in ("done", "failed"))
        sched.close(drain=False)  # hard stop: job parks at its chunk boundary
        parked = sched.status(job)
        assert parked["state"] in ("running", "queued", "done")
        if parked["state"] != "done":
            sched2 = JobScheduler(
                slots=1, state_dir=str(tmp_path), start=False
            )
            assert sched2.recover_jobs() == [job]
            sched2.start()
            final = sched2.wait(job, timeout=240)
            assert final["state"] == "done"
            resumed = sched2.result(job)
            direct = run_job(JobSpec(dataset="krki", algo="p2mdie", p=2, seed=0))
            assert list(resumed.theory) == list(direct.theory)
            sched2.close()

    def test_recovery_preserves_terminal_states(self, tmp_path):
        sched = JobScheduler(slots=1, state_dir=str(tmp_path), start=False)
        done = sched.submit(JobSpec(dataset="trains", algo="mdie"))
        cancelled = sched.submit(JobSpec(dataset="trains", algo="mdie", priority=-1))
        # Cancelled before the workers ever start: guaranteed still queued.
        sched.cancel(cancelled)
        sched.start()
        sched.wait(done, timeout=120)
        sched.close()
        sched2 = JobScheduler(slots=1, state_dir=str(tmp_path), start=False)
        assert sched2.recover_jobs() == []
        states = {j["job"]: j["state"] for j in sched2.jobs()}
        assert states == {done: "done", cancelled: "cancelled"}
        # Sequence numbers continue past recovered records.
        new = sched2.submit(JobSpec(dataset="trains"))
        assert int(new.split("-")[1]) > int(cancelled.split("-")[1])
        sched2.close(drain=False)


class TestRegistryIntegration:
    def test_register_as_publishes_with_provenance(self, registry):
        with JobScheduler(slots=1, registry=registry) as sched:
            spec = JobSpec(
                dataset="trains", algo="p2mdie", p=2, seed=0, register_as="trains-svc"
            )
            job = sched.submit(spec)
            sched.wait(job, timeout=120)
            outcome = sched.result(job)
        record = registry.get("trains-svc")
        assert record.version == 1
        assert record.to_theory() == outcome.theory
        prov = record.provenance_dict()
        assert prov["dataset"] == "trains"
        assert prov["algo"] == "p2mdie"
        assert prov["job"] == job
        assert record.config_sig == outcome.config_sig


class TestRetentionAndOutcomePersistence:
    def test_gc_keeps_newest_terminal_jobs(self, tmp_path):
        import os

        sched = JobScheduler(slots=1, state_dir=str(tmp_path), start=False)
        jobs = [sched.submit(JobSpec(dataset="trains", algo="mdie")) for _ in range(3)]
        # Cancel before start: three terminal jobs, oldest-first by seq.
        for j in jobs:
            sched.cancel(j)
        running = sched.submit(JobSpec(dataset="trains", algo="mdie"))
        assert sched.gc(keep=1) == jobs[:2]
        states = {j["job"] for j in sched.jobs()}
        assert states == {jobs[2], running}
        # The durable records went with them.
        on_disk = {n for n in os.listdir(str(tmp_path)) if n.startswith("job-")}
        assert on_disk == {jobs[2], running}
        sched.close(drain=False)

    def test_gc_zero_drops_all_terminal_never_active(self):
        sched = JobScheduler(slots=1, start=False)
        queued = sched.submit(JobSpec(dataset="trains", algo="mdie"))
        victim = sched.submit(JobSpec(dataset="trains", algo="mdie"))
        sched.cancel(victim)
        assert sched.gc(keep=0) == [victim]
        assert [j["job"] for j in sched.jobs()] == [queued]
        with pytest.raises(SchedulerError, match="unknown job"):
            sched.status(victim)
        sched.close(drain=False)

    def test_gc_rejects_negative_keep(self):
        with JobScheduler(slots=1, start=False) as sched:
            with pytest.raises(ValueError, match="keep"):
                sched.gc(keep=-1)

    def test_job_ids_never_reused_after_gc(self):
        sched = JobScheduler(slots=1, start=False)
        victim = sched.submit(JobSpec(dataset="trains", algo="mdie"))
        sched.cancel(victim)
        sched.gc(keep=0)
        fresh = sched.submit(JobSpec(dataset="trains", algo="mdie"))
        assert int(fresh.split("-")[1]) > int(victim.split("-")[1])
        sched.close(drain=False)

    def test_outcome_summary_survives_scheduler_restart(self, tmp_path):
        sched = JobScheduler(slots=1, state_dir=str(tmp_path))
        job = sched.submit(JobSpec(dataset="trains", algo="mdie", seed=0))
        before = sched.wait(job, timeout=120)
        assert before["state"] == "done"
        sched.close()

        sched2 = JobScheduler(slots=1, state_dir=str(tmp_path), start=False)
        sched2.recover_jobs()
        after = sched2.status(job)
        assert after["state"] == "done"
        # The summary (theory text included) rode along in the durable
        # job record; only the full in-memory JobOutcome is gone.
        assert after["outcome"] == before["outcome"]
        assert after["outcome"]["rules"] >= 1
        assert ":-" in after["outcome"]["theory"]
        with pytest.raises(SchedulerError, match="previous scheduler"):
            sched2.result(job)
        sched2.close(drain=False)
