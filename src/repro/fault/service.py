"""Deterministic fault plans for the *service* tier.

:class:`~repro.fault.plan.FaultPlan` describes what the learning
cluster must survive; :class:`ServiceFaultPlan` is its counterpart for
the serving path — the front door, the query engine and the job
scheduler.  The same design rules carry over:

* **Triggers are logical counts, not wall-clock instants**: "reset the
  connection handling the 3rd ``query`` request", "fail the 2nd engine
  lease", "crash the slot thread picking its 1st job".  Under
  concurrent traffic the *assignment* of faults to specific requests
  depends on arrival order, but the number and kind of injected faults
  is exact, so a chaos run's invariants (result parity, zero duplicated
  jobs, zero corrupt records) are checkable run after run.
* **JSON round-trip**: plans are files (``examples/faultplans/
  service_*.json``) shared by tests, the chaos benchmark leg and
  ``repro loadgen --chaos``.
* **Strictly opt-in**: a server started without a plan carries no
  injection state at all; an empty plan normalizes to ``None``.

Event types
-----------
:class:`ConnReset`
    Abort the TCP connection instead of (or after) answering the Nth
    matching request — ``when="before"`` models a request that never
    reached the handler, ``when="after"`` the nastier case where the
    server *did* the work but the response was lost (the case
    idempotency keys exist for).
:class:`LeaseFault`
    The query tier's Nth span evaluation (a plain query is one span, a
    ``shards=k`` query k of them) either fails before it starts
    (``mode="fail"`` — the client sees a retryable ``unavailable``
    error) or stalls ``delay`` seconds (``mode="slow"`` — tail latency,
    results unchanged).
:class:`SlotCrash`
    The scheduler worker thread that picks the Nth job dies before
    executing it, exactly as if the thread was lost mid-run.  The
    scheduler's self-healing path re-queues the orphaned job under its
    original id (no duplication) and respawns the slot.
:class:`PersistFault`
    The Nth durable write of the matching ``target`` (``"job"`` records
    or ``"registry"`` artifacts) fails after the tmp file is written
    but before the atomic rename — the torn-write window
    :mod:`repro.util.atomicio` exists to make survivable.

The mutable, thread-safe counterpart is :class:`ServiceFaultInjector`:
one per server, consulted from the serving hot paths, recording every
injected event in :attr:`ServiceFaultInjector.log`.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from typing import Optional

from repro.service.errors import InjectedFault

__all__ = [
    "ConnReset",
    "LeaseFault",
    "SlotCrash",
    "PersistFault",
    "ServiceFaultPlan",
    "ServiceFaultInjector",
    "InjectedFault",
    "normalize_service_plan",
]


@dataclass(frozen=True)
class ConnReset:
    """Abort the connection serving the ``on_request``-th matching request.

    ``op`` restricts the counter to one operation (``None`` counts every
    request).  ``when="before"`` drops the request unprocessed;
    ``when="after"`` processes it, discards the response, then resets —
    the client cannot tell whether the work happened, which is exactly
    what retry + idempotency must make safe.
    """

    on_request: int
    op: Optional[str] = None
    when: str = "before"

    def __post_init__(self):
        if self.on_request < 1:
            raise ValueError("on_request is 1-based")
        if self.when not in ("before", "after"):
            raise ValueError("when must be 'before' or 'after'")


@dataclass(frozen=True)
class LeaseFault:
    """Fail or slow the ``on_lease``-th engine lease of the query tier."""

    on_lease: int
    mode: str = "fail"
    delay: float = 0.0

    def __post_init__(self):
        if self.on_lease < 1:
            raise ValueError("on_lease is 1-based")
        if self.mode not in ("fail", "slow"):
            raise ValueError("mode must be 'fail' or 'slow'")
        if self.mode == "slow" and self.delay <= 0:
            raise ValueError("slow leases need a positive delay")


@dataclass(frozen=True)
class SlotCrash:
    """Kill the scheduler slot thread picking the ``on_job``-th job."""

    on_job: int

    def __post_init__(self):
        if self.on_job < 1:
            raise ValueError("on_job is 1-based")


@dataclass(frozen=True)
class PersistFault:
    """Fail the ``on_write``-th durable write of ``target`` artifacts."""

    on_write: int
    target: str = "job"

    def __post_init__(self):
        if self.on_write < 1:
            raise ValueError("on_write is 1-based")
        if self.target not in ("job", "registry"):
            raise ValueError("target must be 'job' or 'registry'")


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Everything injected into (and tolerated by) one served instance."""

    resets: tuple[ConnReset, ...] = ()
    leases: tuple[LeaseFault, ...] = ()
    crashes: tuple[SlotCrash, ...] = ()
    persist: tuple[PersistFault, ...] = ()

    @property
    def empty(self) -> bool:
        return not (self.resets or self.leases or self.crashes or self.persist)

    def replace(self, **kw) -> "ServiceFaultPlan":
        return replace(self, **kw)

    # -- (de)serialization --------------------------------------------------------

    def to_json(self) -> str:
        events: list[dict] = []
        for ev in self.resets:
            d: dict = {"kind": "reset", "on_request": ev.on_request, "when": ev.when}
            if ev.op is not None:
                d["op"] = ev.op
            events.append(d)
        for ev in self.leases:
            d = {"kind": "lease", "on_lease": ev.on_lease, "mode": ev.mode}
            if ev.mode == "slow":
                d["delay"] = ev.delay
            events.append(d)
        for ev in self.crashes:
            events.append({"kind": "slot_crash", "on_job": ev.on_job})
        for ev in self.persist:
            events.append(
                {"kind": "persist", "on_write": ev.on_write, "target": ev.target}
            )
        return json.dumps({"events": events}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ServiceFaultPlan":
        doc = json.loads(text)
        resets: list[ConnReset] = []
        leases: list[LeaseFault] = []
        crashes: list[SlotCrash] = []
        persist: list[PersistFault] = []
        for ev in doc.get("events", ()):
            kind = ev.get("kind")
            if kind == "reset":
                resets.append(
                    ConnReset(
                        on_request=ev["on_request"],
                        op=ev.get("op"),
                        when=ev.get("when", "before"),
                    )
                )
            elif kind == "lease":
                leases.append(
                    LeaseFault(
                        on_lease=ev["on_lease"],
                        mode=ev.get("mode", "fail"),
                        delay=ev.get("delay", 0.0),
                    )
                )
            elif kind == "slot_crash":
                crashes.append(SlotCrash(on_job=ev["on_job"]))
            elif kind == "persist":
                persist.append(
                    PersistFault(
                        on_write=ev["on_write"], target=ev.get("target", "job")
                    )
                )
            else:
                raise ValueError(f"unknown service fault event kind {kind!r}")
        return cls(
            resets=tuple(resets),
            leases=tuple(leases),
            crashes=tuple(crashes),
            persist=tuple(persist),
        )

    @classmethod
    def load(cls, path: str) -> "ServiceFaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def normalize_service_plan(
    plan: Optional[ServiceFaultPlan],
) -> Optional[ServiceFaultPlan]:
    """None, or a plan that actually injects something."""
    if plan is None or plan.empty:
        return None
    return plan


class ServiceFaultInjector:
    """Thread-safe trigger state for one served instance.

    The serving layers consult it at four choke points; each consult
    advances the matching 1-based counter and answers "inject now?".
    All injected events are appended to :attr:`log` (as
    :class:`~repro.fault.plan.FaultRecord`, with the counter value in
    the ``time`` slot — service faults are count-triggered, not
    time-triggered).
    """

    def __init__(self, plan: ServiceFaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._requests = 0
        self._requests_by_op: dict[str, int] = {}
        self._leases = 0
        self._jobs_picked = 0
        self._writes: dict[str, int] = {}
        self.log: list[FaultRecord] = []

    def _record(self, kind: str, count: int, detail: str) -> None:
        from repro.fault.plan import FaultRecord

        self.log.append(FaultRecord(kind=kind, rank=0, time=float(count), detail=detail))

    # -- choke points ------------------------------------------------------------

    def on_request(self, op: Optional[str]) -> Optional[ConnReset]:
        """The reset to inject for this request, else None."""
        with self._lock:
            self._requests += 1
            if op is not None:
                self._requests_by_op[op] = self._requests_by_op.get(op, 0) + 1
            for ev in self.plan.resets:
                count = (
                    self._requests_by_op.get(ev.op, 0)
                    if ev.op is not None
                    else self._requests
                )
                if (ev.op is None or ev.op == op) and count == ev.on_request:
                    self._record(
                        "reset", count, f"op={op} when={ev.when}"
                    )
                    return ev
            return None

    def on_lease(self) -> Optional[LeaseFault]:
        """The lease fault to apply before this span is evaluated, else None."""
        with self._lock:
            self._leases += 1
            for ev in self.plan.leases:
                if self._leases == ev.on_lease:
                    self._record("lease", self._leases, f"mode={ev.mode}")
                    return ev
            return None

    def on_job_pick(self) -> bool:
        """True when the slot thread picking this job must crash."""
        with self._lock:
            self._jobs_picked += 1
            for ev in self.plan.crashes:
                if self._jobs_picked == ev.on_job:
                    self._record("slot_crash", self._jobs_picked, "")
                    return True
            return False

    def on_persist(self, target: str) -> bool:
        """True when this durable write must fail (pre-rename)."""
        with self._lock:
            count = self._writes.get(target, 0) + 1
            self._writes[target] = count
            for ev in self.plan.persist:
                if ev.target == target and count == ev.on_write:
                    self._record("persist", count, f"target={target}")
                    return True
            return False

    def persist_hook(self, target: str):
        """An :func:`repro.util.atomicio.atomic_write_bytes` ``fail_hook``.

        Returns a callable (or None when the plan has no matching
        events) that raises :class:`InjectedFault` inside the
        torn-write window of the ``on_write``-th matching write.
        """
        if not any(ev.target == target for ev in self.plan.persist):
            return None

        def hook(tmp_path: str) -> None:
            if self.on_persist(target):
                raise InjectedFault(
                    f"injected persistence failure ({target} write, {tmp_path})"
                )

        return hook

    def snapshot(self) -> dict:
        """Counters + injected-event log lines (for the stats op)."""
        with self._lock:
            return {
                "requests": self._requests,
                "leases": self._leases,
                "jobs_picked": self._jobs_picked,
                "writes": dict(self._writes),
                "injected": [str(rec) for rec in self.log],
            }
