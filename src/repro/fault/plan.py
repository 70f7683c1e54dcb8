"""Deterministic fault & elasticity plans.

A :class:`FaultPlan` is the single description of every fault a run must
survive: worker crashes, stragglers (compute slowdowns), message loss on
individual links, and elastic pool growth (spare hosts joining mid-run).
The same plan drives every execution substrate: it is handed to
``Backend.run(procs, fault_plan=...)``, and the discrete-event scheduler,
the local child processes and the MPI ranks each take their rank's
:class:`RankFaults` from :meth:`FaultPlan.for_rank` — one object counts
the triggers everywhere, so a fault scenario is reproducible across
virtual and wall-clock time.

Triggers are therefore *logical* wherever cross-substrate determinism is
needed: "crash rank 2 when it is about to process its 2nd
``start_pipeline`` message" means the same thing in virtual and real time.
Purely time-based triggers (``at_time``) exist for the simulator only.

An *empty* plan is indistinguishable from no plan at all: the parallel
front-ends normalize it to ``None`` and the masters send one unstamped
message per task (no heartbeats, no stamps), so such runs stay
charge-for-charge and byte-for-byte what ``golden_runs.json`` pins.  Set
``supervise=True`` to force the fault-tolerance protocol on with no
injected faults — that is how the recovery benchmark measures the
protocol's own overhead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

__all__ = [
    "WorkerCrash",
    "Straggler",
    "MessageLoss",
    "WorkerJoin",
    "FaultPlan",
    "RankFaults",
    "FaultRecord",
    "normalize_plan",
    "MAX_STRAGGLE_SLEEP",
]

#: cap on the extra *real* sleep a straggler adds per compute interval on
#: the wall-clock substrates (local, mpi), so pathological factors cannot
#: hang a run.
MAX_STRAGGLE_SLEEP = 1.0


@dataclass(frozen=True)
class WorkerCrash:
    """Kill one physical worker rank.

    ``on_recv``/``tag`` is the deterministic cross-substrate trigger: the
    rank dies when it is about to process its ``on_recv``-th received
    message matching ``tag`` (``tag=None`` counts every message).
    ``at_time`` triggers at a virtual-clock instant instead and is only
    honoured by the simulator.
    """

    rank: int
    on_recv: Optional[int] = None
    tag: Optional[str] = None
    at_time: Optional[float] = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("only worker ranks (>= 1) can crash; the master is assumed reliable")
        if (self.on_recv is None) == (self.at_time is None):
            raise ValueError("exactly one of on_recv / at_time must be set")
        if self.on_recv is not None and self.on_recv < 1:
            raise ValueError("on_recv is 1-based")


@dataclass(frozen=True)
class Straggler:
    """Slow one rank's compute down by ``factor`` from ``after_time`` on.

    The simulator multiplies charged compute intervals; the local backend
    sleeps the extra time for real.  Stragglers change timing, never
    results.
    """

    rank: int
    factor: float
    after_time: float = 0.0

    def __post_init__(self):
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1.0")


@dataclass(frozen=True)
class MessageLoss:
    """Drop the ``nth`` (1-based) message sent on the ``src -> dst`` link.

    The sender is still charged for the send (it cannot know the network
    dropped the message); the payload is simply never delivered.
    """

    src: int
    dst: int
    nth: int = 1

    def __post_init__(self):
        if self.nth < 1:
            raise ValueError("nth is 1-based")


@dataclass(frozen=True)
class WorkerJoin:
    """Admit spare physical host ``rank`` at the start of ``epoch``.

    Spare hosts (provisioned via the front-ends' ``spares`` argument)
    idle until the master activates them at the named epoch boundary and
    rebalances logical workers onto the grown pool.
    """

    rank: int
    epoch: int

    def __post_init__(self):
        if self.epoch < 1:
            raise ValueError("epoch is 1-based")


@dataclass(frozen=True)
class FaultPlan:
    """Everything injected into (and tolerated by) one run.

    ``timeout`` is the failure-detection timeout the masters use for
    blocking receives and heartbeat probes — virtual seconds under the
    sim backend, wall-clock seconds under the local and mpi backends.
    """

    crashes: tuple[WorkerCrash, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    losses: tuple[MessageLoss, ...] = ()
    joins: tuple[WorkerJoin, ...] = ()
    timeout: float = 10.0
    #: run the fault-tolerance protocol even with nothing to inject.
    supervise: bool = False

    @property
    def empty(self) -> bool:
        """True when the plan changes nothing: front-ends treat an empty
        plan exactly like ``fault_plan=None`` (unstamped task messages)."""
        return not (
            self.crashes or self.stragglers or self.losses or self.joins or self.supervise
        )

    def replace(self, **kw) -> "FaultPlan":
        return replace(self, **kw)

    # -- per-rank view -------------------------------------------------------------
    def for_rank(self, rank: int) -> "RankFaults":
        """The events naming ``rank`` (the last of each kind, if it is
        named twice), with fresh trigger counters."""
        crash = straggler = None
        for ev in self.crashes:
            if ev.rank == rank:
                crash = ev
        for ev in self.stragglers:
            if ev.rank == rank:
                straggler = ev
        drops: dict[int, set[int]] = {}
        for ev in self.losses:
            if ev.src == rank:
                drops.setdefault(ev.dst, set()).add(ev.nth)
        return RankFaults(crash, straggler, drops)

    def joins_at(self, epoch: int) -> tuple[WorkerJoin, ...]:
        return tuple(ev for ev in self.joins if ev.epoch == epoch)

    def validate_ranks(self, p: int, spares: int = 0) -> "FaultPlan":
        """Fail fast on events naming ranks outside the provisioned pool.

        The pool is ranks ``0`` (master) plus workers ``1..p+spares``;
        joins must name provisioned spares (``p+1..p+spares``).  Called by
        the run front-ends and — via ``FaultPlan.load(path, p=...)`` — by
        the CLI, so a bad plan fails at load time, not mid-run.
        """
        hi = p + spares
        for ev in self.crashes:
            if not 1 <= ev.rank <= hi:
                raise ValueError(f"crash rank {ev.rank} outside worker pool 1..{hi}")
        for ev in self.stragglers:
            if not 0 <= ev.rank <= hi:
                raise ValueError(f"straggler rank {ev.rank} outside rank range 0..{hi}")
        for ev in self.losses:
            for end, rank in (("src", ev.src), ("dst", ev.dst)):
                if not 0 <= rank <= hi:
                    raise ValueError(f"drop {end} rank {rank} outside rank range 0..{hi}")
        for ev in self.joins:
            if not p < ev.rank <= hi:
                raise ValueError(
                    f"join rank {ev.rank} is not a provisioned spare ({p + 1}..{hi})"
                )
        return self

    # -- (de)serialization --------------------------------------------------------
    def to_json(self) -> str:
        events: list[dict] = []
        for ev in self.crashes:
            d: dict = {"kind": "crash", "rank": ev.rank}
            if ev.on_recv is not None:
                d["on_recv"] = ev.on_recv
                if ev.tag is not None:
                    d["tag"] = ev.tag
            else:
                d["at_time"] = ev.at_time
            events.append(d)
        for ev in self.stragglers:
            events.append(
                {"kind": "straggler", "rank": ev.rank, "factor": ev.factor, "after_time": ev.after_time}
            )
        for ev in self.losses:
            events.append({"kind": "drop", "src": ev.src, "dst": ev.dst, "nth": ev.nth})
        for ev in self.joins:
            events.append({"kind": "join", "rank": ev.rank, "epoch": ev.epoch})
        return json.dumps(
            {"timeout": self.timeout, "supervise": self.supervise, "events": events},
            indent=2,
        )

    @classmethod
    def from_json(
        cls, text: str, *, p: Optional[int] = None, spares: int = 0
    ) -> "FaultPlan":
        """Parse a plan; with ``p`` set, also :meth:`validate_ranks`."""
        doc = json.loads(text)
        crashes: list[WorkerCrash] = []
        stragglers: list[Straggler] = []
        losses: list[MessageLoss] = []
        joins: list[WorkerJoin] = []
        for i, ev in enumerate(doc.get("events", ())):
            kind = ev.get("kind")
            if kind == "crash":
                crashes.append(
                    WorkerCrash(
                        rank=ev["rank"],
                        on_recv=ev.get("on_recv"),
                        tag=ev.get("tag"),
                        at_time=ev.get("at_time"),
                    )
                )
            elif kind == "straggler":
                stragglers.append(
                    Straggler(
                        rank=ev["rank"],
                        factor=ev["factor"],
                        after_time=ev.get("after_time", 0.0),
                    )
                )
            elif kind == "drop":
                losses.append(MessageLoss(src=ev["src"], dst=ev["dst"], nth=ev.get("nth", 1)))
            elif kind == "join":
                joins.append(WorkerJoin(rank=ev["rank"], epoch=ev["epoch"]))
            else:
                raise ValueError(f"event #{i}: unknown fault event kind {kind!r}")
        plan = cls(
            crashes=tuple(crashes),
            stragglers=tuple(stragglers),
            losses=tuple(losses),
            joins=tuple(joins),
            timeout=float(doc.get("timeout", 10.0)),
            supervise=bool(doc.get("supervise", False)),
        )
        if p is not None:
            plan.validate_ranks(p, spares)
        return plan

    @classmethod
    def load(cls, path: str, *, p: Optional[int] = None, spares: int = 0) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read(), p=p, spares=spares)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def normalize_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """None, or a plan that actually does something (empty plans → None)."""
    if plan is None or plan.empty:
        return None
    return plan


class RankFaults:
    """One rank's share of a plan plus the counters that fire its triggers.

    The discrete-event scheduler and the wall-clock contexts (local, mpi)
    each hold one per rank, from :meth:`FaultPlan.for_rank`, and ask it
    the same three questions — so "the 2nd ``start_pipeline``" or "the
    3rd send to rank 2" is counted in one place for every substrate.
    ``RankFaults()`` injects nothing.
    """

    def __init__(
        self,
        crash: Optional[WorkerCrash] = None,
        straggler: Optional[Straggler] = None,
        drops: Optional[dict] = None,
    ):
        self.crash = crash
        self.straggler = straggler
        #: dst -> 1-based indices of the sends to drop on that link.
        self.drops = drops or {}
        self._recvs = 0
        self._sends: dict[int, int] = {}

    def crashes_on(self, tag: str) -> bool:
        """Count one received message about to be processed; True when it
        is the ``on_recv``-th matching one (``at_time`` crashes never
        fire here — they are the simulator's)."""
        crash = self.crash
        if crash is None or crash.on_recv is None:
            return False
        if crash.tag is not None and crash.tag != tag:
            return False
        self._recvs += 1
        return self._recvs >= crash.on_recv

    def drops_send(self, dst: int) -> int:
        """Count one send to ``dst``; its 1-based index on that link when
        the plan drops it, else 0."""
        n = self._sends.get(dst, 0) + 1
        self._sends[dst] = n
        return n if n in self.drops.get(dst, ()) else 0

    def drop_record(self, src: int, dst: int, tag: str, now: float) -> Optional["FaultRecord"]:
        """Count one ``src -> dst`` send (:meth:`drops_send`); the log
        record of its loss when the plan drops it, else None."""
        n = self.drops_send(dst)
        if not n:
            return None
        return FaultRecord(kind="drop", rank=src, time=now, detail=f"->{dst} #{n} tag={tag}")

    def slowdown(self, now: float) -> float:
        """Compute-time multiplier at clock ``now`` (1.0: not straggling)."""
        s = self.straggler
        return s.factor if s is not None and now >= s.after_time else 1.0


@dataclass(frozen=True)
class FaultRecord:
    """One injected/observed fault event, for run reports."""

    kind: str  # "crash" | "straggle" | "drop" | "join" | "detect" | "adopt"
    rank: int
    time: float
    detail: str = ""

    def __str__(self) -> str:
        extra = f" {self.detail}" if self.detail else ""
        return f"[t={self.time:.3f}] {self.kind} rank={self.rank}{extra}"
