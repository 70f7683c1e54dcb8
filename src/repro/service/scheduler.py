"""Concurrent learning-job scheduler over a shared pool of backend slots.

The scheduler owns ``slots`` worker threads.  Each thread pops the
highest-priority queued job (ties FIFO) and executes it through
:func:`repro.service.jobs.run_job`.  Jobs on the ``local`` backend do
their work in real child processes, so slots give genuine parallelism;
``sim`` jobs interleave under the GIL but still share the queue,
priorities and lifecycle.

Lifecycle::

    queued -> running -> done | failed
       \\         \\-> cancelled   (preemptible jobs: between chunks)
        \\-> cancelled             (any queued job)

**Preemption & resume.**  A job with ``preemptible=True`` (and a
checkpoint-capable algorithm) runs in epoch *chunks*: each chunk resumes
from the newest checkpoint and advances :data:`CHUNK_EPOCHS` covering epochs
(reusing :mod:`repro.fault.checkpoint` — the same machinery behind
``repro resume``).  Between chunks the scheduler honours cancellation
and shutdown requests; because every chunk boundary is an ordinary
checkpoint, the final theory is bit-identical to a one-shot run.

**Durability.**  With a ``state_dir``, every job persists a wire-encoded
:class:`~repro.service.jobs.JobRecord` per state transition plus its
checkpoints, and a fresh scheduler over the same directory
:meth:`~JobScheduler.recover_jobs` — interrupted (``running``) and
``queued`` jobs are re-queued, resuming mid-run where a checkpoint
exists.  Record writes are atomic-with-fsync
(:func:`repro.util.atomicio.atomic_write_bytes`), so a crash mid-write
leaves the previous record, never a torn one; records that are
nonetheless undecodable (disk damage, version skew) are *quarantined*
by ``recover_jobs`` — renamed aside and reported — instead of taking
the whole recovery down.

**Idempotent submission.**  ``submit(spec, idempotency_key=...)``
returns the already-created job when the key was seen before (the key
is persisted in the record, so the dedup map survives restarts).  This
is what makes client-side retries safe: a submit whose *response* was
lost to a connection reset is simply re-sent, and the job is created
exactly once.

**Self-healing slots.**  A slot thread that dies mid-pick (only ever
via injected :class:`~repro.fault.service.SlotCrash` faults — real job
exceptions are contained per-job) re-queues its orphaned ``running``
job under the same id and respawns in place, so a crashed slot costs
latency, never a lost or duplicated job.
"""

from __future__ import annotations

import heapq
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.parallel import wire
from repro.run import RunOutcome
from repro.service.errors import InjectedFault, Overloaded, ShuttingDown
from repro.service.jobs import JobRecord, JobSpec, OutcomeSummary, run_job
from repro.util.atomicio import atomic_write_bytes
from repro.util.log import get_logger

_log = get_logger("repro.scheduler")

__all__ = ["JobScheduler", "SchedulerError", "TERMINAL_STATES"]

#: states a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Covering epochs per chunk of a preemptible job: cancellation and
#: shutdown are honoured at every epoch boundary.
CHUNK_EPOCHS = 1


class SchedulerError(RuntimeError):
    """Unknown job id, bad transition, or use after close."""


class _SlotCrash(BaseException):
    """Injected slot-thread death; escapes the per-job isolation boundary.

    Deliberately a BaseException: the worker loop's per-job ``except
    BaseException`` guard must *not* swallow it into a ``failed``
    transition — a crashed slot is a lost thread, not a bad job.
    """

    def __init__(self, job_id: str):
        super().__init__(job_id)
        self.job_id = job_id


@dataclass
class _Job:
    """Scheduler-internal mutable job handle."""

    record: JobRecord
    outcome: Optional[RunOutcome] = None
    cancel: threading.Event = field(default_factory=threading.Event)
    #: owned TemporaryDirectory when the scheduler has no state_dir.
    _tmp: Optional[tempfile.TemporaryDirectory] = None

    def cleanup_tmp(self) -> None:
        """Drop the owned checkpoint temp dir (terminal states only)."""
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


class JobScheduler:
    """Run many learning jobs concurrently over ``slots`` worker threads.

    Parameters
    ----------
    slots:
        Number of jobs executed concurrently (the shared backend pool).
    state_dir:
        Durable root: per-job records + checkpoints live in
        ``state_dir/<job-id>/``.  ``None`` keeps everything in memory
        (preemptible jobs checkpoint into a temporary directory).
    registry:
        Optional :class:`~repro.service.registry.TheoryRegistry`; jobs
        with ``register_as`` publish their learned theory on success.
    max_queue:
        Admission bound: reject submits once this many jobs are already
        queued (0 = unbounded).  Rejection is an
        :class:`~repro.service.errors.Overloaded` fault carrying a
        ``retry_after`` hint, so shed clients back off instead of
        queueing forever.
    fault_injector:
        Optional :class:`~repro.fault.service.ServiceFaultInjector`
        driving deterministic slot crashes and persistence-write
        failures (chaos testing only; None in production).
    start:
        Start worker threads immediately (pass ``False`` to stage jobs
        first — used by tests and by ``recover_jobs``-then-start flows).
    """

    def __init__(
        self,
        slots: int = 2,
        state_dir: Optional[str] = None,
        registry=None,
        max_queue: int = 0,
        fault_injector=None,
        start: bool = True,
    ):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0 (0 = unbounded)")
        self.slots = slots
        self.state_dir = state_dir
        self.registry = registry
        self.max_queue = max_queue
        self._injector = fault_injector
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._jobs: dict[str, _Job] = {}
        self._queue: list[tuple[int, int, str]] = []  # (-priority, seq, job_id)
        self._seq = 0
        self._stop = False
        self._closed = False
        #: set once close() joined every slot: no job changes state any more.
        self._halted = False
        self._threads: list[threading.Thread] = []
        #: idempotency key -> job id (rebuilt from records on recovery).
        self._idem: dict[str, str] = {}
        #: job ids whose records could not be decoded during recovery.
        self.quarantined: list[str] = []
        #: durable writes that failed (record kept in memory; rewritten
        #: at the next transition).
        self.persist_errors = 0
        #: slot threads respawned after an (injected) crash.
        self.slot_crashes = 0
        if state_dir:
            os.makedirs(state_dir, exist_ok=True)
        self._started = False
        if start:
            self.start()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        if self._started:
            return
        self._started = True
        for i in range(self.slots):
            t = threading.Thread(
                target=self._slot_main, name=f"repro-job-slot-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the scheduler down.

        ``drain=True`` waits for every queued/running job to reach a
        terminal state first.  ``drain=False`` stops as soon as possible:
        queued jobs stay ``queued`` and preemptible running jobs park at
        their next chunk boundary, still ``running`` — both are
        re-queued by :meth:`recover_jobs` on a fresh scheduler over the
        same ``state_dir``.  Once every slot is joined, no job changes
        state any more and every blocked :meth:`wait` / :meth:`wait_all`
        returns.
        """
        if drain:
            self.wait_all(timeout=timeout)
        with self._cv:
            self._stop = True
            self._closed = True
            self._cv.notify_all()
        for t in self._threads:
            t.join(timeout=timeout)
        if not any(t.is_alive() for t in self._threads):
            with self._cv:
                self._halted = True
                self._cv.notify_all()

    def __enter__(self) -> "JobScheduler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=exc == (None, None, None))

    # -- submission & queries ----------------------------------------------------

    def submit(self, spec: JobSpec, idempotency_key: Optional[str] = None) -> str:
        """Queue one job; returns its id (``job-NNNN``, submission order).

        With an ``idempotency_key``, re-submitting the same key returns
        the id of the job it created the first time — a retried submit
        whose response was lost never duplicates work.  Keys are
        persisted in the job record, so dedup survives restarts.
        """
        with self._cv:
            if self._closed:
                raise SchedulerError("scheduler is closed")
            if idempotency_key is not None:
                existing = self._idem.get(idempotency_key)
                if existing is not None:
                    return existing
            if self.max_queue:
                queued = sum(
                    1 for j in self._jobs.values() if j.record.state == "queued"
                )
                if queued >= self.max_queue:
                    raise Overloaded(
                        f"job queue full ({queued} queued, cap {self.max_queue})",
                        retry_after=0.25,
                    )
            self._seq += 1
            job_id = f"job-{self._seq:04d}"
            record = JobRecord(
                job_id=job_id,
                seq=self._seq,
                spec=spec,
                state="queued",
                idem_key=idempotency_key,
            )
            job = _Job(record=record)
            self._jobs[job_id] = job
            if idempotency_key is not None:
                self._idem[idempotency_key] = job_id
            self._persist(job)
            heapq.heappush(self._queue, (-spec.priority, self._seq, job_id))
            self._cv.notify()
            return job_id

    def lookup_idempotent(self, key: str) -> Optional[str]:
        """The job id an idempotency key already created, or None."""
        with self._lock:
            return self._idem.get(key)

    def _get(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise SchedulerError(f"unknown job {job_id!r}") from None

    def status(self, job_id: str) -> dict:
        """Plain-data status of one job (includes the outcome when done)."""
        with self._lock:
            job = self._get(job_id)
            d = job.record.to_dict()
            if job.outcome is not None:
                d["outcome"] = job.outcome.summary()
            return d

    def jobs(self) -> list[dict]:
        """Status of every known job, in submission order."""
        with self._lock:
            return [j.record.to_dict() for j in sorted(self._jobs.values(), key=lambda j: j.record.seq)]

    def result(self, job_id: str) -> RunOutcome:
        """The outcome of a ``done`` job (raises otherwise)."""
        with self._lock:
            job = self._get(job_id)
            if job.record.state != "done":
                raise SchedulerError(f"job {job_id} is {job.record.state}, not done")
            if job.outcome is None:
                raise SchedulerError(
                    f"job {job_id} finished under a previous scheduler; its outcome "
                    "is not retained across restarts (published theories live in "
                    "the registry)"
                )
            return job.outcome

    def cancel(self, job_id: str) -> bool:
        """Request cancellation.

        Queued jobs cancel immediately.  A *running* preemptible job is
        flagged and parks ``cancelled`` at its next chunk boundary
        (checkpoints retained).  A running non-preemptible job cannot be
        interrupted — returns ``False`` (it will still run to
        completion).  Terminal jobs return ``False``.
        """
        with self._cv:
            job = self._get(job_id)
            state = job.record.state
            if state == "queued":
                self._transition(job, "cancelled")
                self._cv.notify_all()
                return True
            spec = job.record.spec
            if state == "running" and spec.preemptible and spec.checkpointable:
                # (JobSpec validation rejects preemptible non-checkpointable
                # specs; the checkpointable guard is defense in depth — the
                # flag is only honoured on the chunked path.)
                job.cancel.set()
                return True
            return False

    def wait(self, job_id: str, timeout: Optional[float] = None) -> dict:
        """Block until the job reaches a terminal state; returns status
        (``ShuttingDown`` if the scheduler closed with the job unfinished)."""
        with self._cv:
            job = self._get(job_id)
            ok = self._cv.wait_for(
                lambda: self._halted or job.record.state in TERMINAL_STATES,
                timeout=timeout,
            )
            if not ok:
                raise SchedulerError(f"timed out waiting for {job_id}")
            if job.record.state not in TERMINAL_STATES:
                raise ShuttingDown(f"scheduler closed before {job_id} finished")
        return self.status(job_id)

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until no job is queued or running (``ShuttingDown`` if
        the scheduler closed first)."""

        def drained():
            return all(j.record.state in TERMINAL_STATES for j in self._jobs.values())

        with self._cv:
            if not self._cv.wait_for(lambda: self._halted or drained(), timeout=timeout):
                raise SchedulerError("timed out draining the job queue")
            if not drained():
                raise ShuttingDown("scheduler closed before its queue drained")

    # -- durability --------------------------------------------------------------

    def _job_dir(self, job_id: str) -> Optional[str]:
        return os.path.join(self.state_dir, job_id) if self.state_dir else None

    def _persist(self, job: _Job) -> None:
        jdir = self._job_dir(job.record.job_id)
        if jdir is None:
            return
        os.makedirs(jdir, exist_ok=True)
        data = wire.encode_always(job.record)
        hook = (
            self._injector.persist_hook("job") if self._injector is not None else None
        )
        try:
            atomic_write_bytes(os.path.join(jdir, "job.rec"), data, fail_hook=hook)
        except (InjectedFault, OSError):
            # In-memory state stays authoritative and the next transition
            # rewrites the whole record; atomicity guarantees the on-disk
            # copy is still the previous consistent one, never a torn one.
            self.persist_errors += 1

    def recover_jobs(self) -> list[str]:
        """Reload jobs persisted under ``state_dir`` by a prior scheduler.

        ``queued`` and ``running`` records are re-queued (a ``running``
        job resumes from its newest checkpoint, where one exists —
        non-checkpointed interrupted jobs simply start over, which is
        safe because job execution is deterministic and side-effect-free
        until completion).  Terminal records are loaded for status only.
        Records that fail to decode (disk damage, version skew) are
        quarantined — renamed to ``job.rec.corrupt`` and listed in
        :attr:`quarantined` — instead of aborting the whole recovery.
        Returns the re-queued job ids.
        """
        if not self.state_dir:
            raise SchedulerError("recover_jobs needs a state_dir")
        requeued: list[str] = []
        with self._cv:
            for name in sorted(os.listdir(self.state_dir)):
                rec_path = os.path.join(self.state_dir, name, "job.rec")
                if not os.path.isfile(rec_path) or name in self._jobs:
                    continue
                try:
                    with open(rec_path, "rb") as fh:
                        record = wire.decode(fh.read())
                    if not isinstance(record, JobRecord):
                        raise ValueError(f"{rec_path} does not hold a JobRecord")
                except Exception:
                    # Quarantine, don't crash: one damaged record must not
                    # take down recovery of every healthy job around it.
                    try:
                        os.replace(rec_path, rec_path + ".corrupt")
                    except OSError:
                        pass
                    self.quarantined.append(name)
                    continue
                job = _Job(record=record)
                self._jobs[record.job_id] = job
                if record.idem_key is not None:
                    self._idem[record.idem_key] = record.job_id
                self._seq = max(self._seq, record.seq)
                if record.state in ("queued", "running"):
                    record = record.replace(state="queued")
                    job.record = record
                    self._persist(job)
                    heapq.heappush(
                        self._queue, (-record.spec.priority, record.seq, record.job_id)
                    )
                    requeued.append(record.job_id)
            self._cv.notify_all()
        return requeued

    def gc(self, keep: int = 0) -> list[str]:
        """Drop terminal jobs older than the newest ``keep`` of them.

        Retention for long-lived servers: done/failed/cancelled jobs
        (and their ``state_dir`` record + checkpoint directories) are
        removed oldest-first, keeping the ``keep`` most recent terminal
        jobs for inspection (0 = drop all terminal jobs).  Queued and
        running jobs are never touched, and job ids are never reused —
        the submission sequence keeps counting.  Returns the removed ids.
        """
        import shutil

        if keep < 0:
            raise ValueError("keep must be >= 0")
        with self._cv:
            terminal = [
                j
                for j in sorted(self._jobs.values(), key=lambda j: j.record.seq)
                if j.record.state in TERMINAL_STATES
            ]
            victims = terminal[: len(terminal) - keep] if keep else terminal
            removed = []
            for job in victims:
                job_id = job.record.job_id
                del self._jobs[job_id]
                job.cleanup_tmp()
                jdir = self._job_dir(job_id)
                if jdir is not None and os.path.isdir(jdir):
                    shutil.rmtree(jdir, ignore_errors=True)
                removed.append(job_id)
            return removed

    # -- execution ---------------------------------------------------------------

    def _transition(self, job: _Job, state: str, **kw) -> None:
        # Caller holds the lock.
        job.record = job.record.replace(state=state, **kw)
        self._persist(job)
        # One correlatable line per job-state change: every line about a
        # job carries its id, so `grep job-0007` tells the whole story.
        _log.info(
            "job_state", job_id=job.record.job_id, state=state,
            dataset=job.record.spec.dataset,
            **({"error": kw["error"]} if "error" in kw else {}),
        )

    def _slot_main(self) -> None:
        """Thread target: run the worker loop, healing injected crashes.

        A :class:`_SlotCrash` models a slot thread dying after it claimed
        a job but before executing it.  The heal path re-queues that
        orphaned job under its original id (never a duplicate) and the
        loop continues — logically a freshly respawned slot.
        """
        while True:
            try:
                self._worker_loop()
                return
            except _SlotCrash as crash:
                self._heal_crashed_slot(crash.job_id)

    def _heal_crashed_slot(self, job_id: str) -> None:
        _log.warning("slot_crash_healed", job_id=job_id)
        with self._cv:
            self.slot_crashes += 1
            job = self._jobs.get(job_id)
            if job is not None and job.record.state == "running":
                self._transition(job, "queued")
                heapq.heappush(
                    self._queue,
                    (-job.record.spec.priority, job.record.seq, job_id),
                )
            self._cv.notify_all()

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._stop and not self._queue:
                    self._cv.wait()
                if self._stop:
                    return
                _, _, job_id = heapq.heappop(self._queue)
                job = self._jobs[job_id]
                if job.record.state != "queued":  # cancelled while queued
                    continue
                self._transition(job, "running")
            if self._injector is not None and self._injector.on_job_pick():
                raise _SlotCrash(job_id)
            try:
                self._execute(job)
            except BaseException as exc:  # noqa: BLE001 - job isolation boundary
                with self._cv:
                    self._transition(job, "failed", error=f"{type(exc).__name__}: {exc}")
                    self._cv.notify_all()
                job.cleanup_tmp()

    def _checkpoint_dir_for(self, job: _Job) -> str:
        jdir = self._job_dir(job.record.job_id)
        if jdir is not None:
            path = os.path.join(jdir, "ckpt")
        else:
            if job._tmp is None:
                job._tmp = tempfile.TemporaryDirectory(prefix="repro-job-")
            path = job._tmp.name
        os.makedirs(path, exist_ok=True)
        return path

    @staticmethod
    def _latest_checkpoint(ckpt_dir: str):
        import re

        from repro.fault.checkpoint import load_checkpoint

        # Numeric max: epoch_%04d pads to 4 digits but keeps growing, and
        # "epoch_10000" sorts before "epoch_9999" lexicographically.
        best = None
        best_epoch = -1
        for n in os.listdir(ckpt_dir):
            m = re.match(r"^epoch_(\d+)\.ckpt$", n)
            if m and int(m.group(1)) > best_epoch:
                best_epoch = int(m.group(1))
                best = n
        if best is None:
            return None
        return load_checkpoint(os.path.join(ckpt_dir, best))

    def _execute(self, job: _Job) -> None:
        spec = job.record.spec
        if spec.preemptible and spec.checkpointable:
            outcome = self._run_chunked(job)
        else:
            ckpt = self._checkpoint_dir_for(job) if spec.checkpointable and self.state_dir else None
            # A recovered job resumes from whatever checkpoint the
            # interrupted scheduler left behind instead of recomputing
            # completed epochs (bit-identical either way).
            resume = self._latest_checkpoint(ckpt) if ckpt else None
            outcome = run_job(spec, checkpoint_dir=ckpt, resume=resume)
        if outcome is None:  # parked (shutdown) or cancelled mid-run
            with self._cv:
                self._cv.notify_all()
            return
        # Publish before the terminal transition so a registry failure
        # surfaces as a failed job, not a silently unpublished one.
        if spec.register_as and self.registry is not None:
            self._publish(job, outcome)
        with self._cv:
            job.outcome = outcome
            # The durable record embeds the outcome digest, so `done`
            # survives a scheduler restart with its result, not just its
            # state string.
            self._transition(
                job, "done", epochs_done=outcome.epochs,
                outcome=OutcomeSummary.from_outcome(outcome),
            )
            self._cv.notify_all()
        job.cleanup_tmp()

    def _run_chunked(self, job: _Job) -> Optional[RunOutcome]:
        """Advance a preemptible job chunk by chunk; None = did not finish."""
        spec = job.record.spec
        ckpt_dir = self._checkpoint_dir_for(job)
        while True:
            state = self._latest_checkpoint(ckpt_dir)
            done_epochs = state.epoch if state is not None else 0
            target = done_epochs + CHUNK_EPOCHS
            if spec.max_epochs is not None:
                target = min(target, spec.max_epochs)
            outcome = run_job(
                spec, checkpoint_dir=ckpt_dir, resume=state, max_epochs=target
            )
            with self._cv:
                job.record = job.record.replace(epochs_done=outcome.epochs)
                self._persist(job)
                hit_cap = spec.max_epochs is not None and outcome.epochs >= spec.max_epochs
                # No-progress chunks mean the run terminated for its own
                # reasons (stall, exhausted seed pool) exactly at a chunk
                # boundary — treat as finished rather than spinning.
                stalled = outcome.epochs <= done_epochs
                if outcome.finished or hit_cap or stalled:
                    return outcome
                if job.cancel.is_set():
                    self._transition(job, "cancelled")
                    self._cv.notify_all()
                    # (Terminal without state_dir: the checkpoints can never
                    # be resumed, so the owned temp dir goes too.)
                    job.cleanup_tmp()
                    return None
                if self._stop:
                    # Park as "running": recover_jobs re-queues and the
                    # next chunk resumes from the checkpoint just written.
                    return None

    def _publish(self, job: _Job, outcome: RunOutcome) -> None:
        spec = job.record.spec
        provenance = {
            "job": job.record.job_id,
            "dataset": spec.dataset,
            "scale": spec.scale,
            "algo": spec.algo,
            "p": str(spec.p),
            "seed": str(spec.seed),
            "backend": spec.backend,
            "epochs": str(outcome.epochs),
            "uncovered": str(outcome.uncovered),
            "train_accuracy": f"{outcome.train_accuracy:.2f}",
        }
        try:
            self.registry.publish(
                spec.register_as,
                outcome.theory,
                config_sig=outcome.config_sig,
                provenance=provenance,
            )
        except (InjectedFault, OSError):
            # A failed publish never wrote the artifact (registry writes
            # are atomic), so one immediate retry re-allocates the same
            # version number and cannot double-publish.
            self.registry.publish(
                spec.register_as,
                outcome.theory,
                config_sig=outcome.config_sig,
                provenance=provenance,
            )

    # -- resilience introspection -------------------------------------------------

    def resilience_stats(self) -> dict:
        """Counters the stats op exposes for chaos runs and operators."""
        with self._lock:
            return {
                "persist_errors": self.persist_errors,
                "slot_crashes": self.slot_crashes,
                "quarantined": list(self.quarantined),
                "queued": sum(
                    1 for j in self._jobs.values() if j.record.state == "queued"
                ),
            }
