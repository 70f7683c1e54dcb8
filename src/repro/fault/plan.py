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
from dataclasses import MISSING, dataclass, fields, replace
from typing import ClassVar, Optional, get_args, get_type_hints

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
class PlanFormat:
    """The one file format of every fault plan, run and service alike.

    A plan document is a JSON object: the plan's settings (``SETTINGS``:
    name -> type, the value coerced to it) plus ``"events"``, a list of
    objects whose ``"kind"`` names an event class through ``KINDS``
    (kind -> (plan field, event class)); an event's other keys are its
    class's fields.  Parsing is strict: a key, kind or field the format
    does not know, a missing field or a value of the wrong type raises
    ``ValueError`` naming the event and the offending name.
    """

    KINDS: ClassVar[dict] = {}
    SETTINGS: ClassVar[dict] = {}
    #: the plan's noun in error messages ("unknown <NOUN> event kind").
    NOUN: ClassVar[str] = "fault"

    @property
    def empty(self) -> bool:
        """True when the plan changes nothing: no event, no switch
        (``bool`` setting) on.  Front-ends treat an empty plan exactly
        like no plan (:func:`normalize_plan`)."""
        events = any(getattr(self, attr) for attr, _ in self.KINDS.values())
        switches = any(getattr(self, name) for name, typ in self.SETTINGS.items() if typ is bool)
        return not (events or switches)

    def replace(self, **kw):
        return replace(self, **kw)

    def _checked(self):
        """The plan, after the checks :meth:`from_json`'s keywords ask for
        beyond the document's shape (none here)."""
        return self

    # -- (de)serialization --------------------------------------------------------
    def to_json(self) -> str:
        events = [
            {"kind": kind, **{k: v for k, v in vars(ev).items() if v is not None}}
            for kind, (attr, _) in self.KINDS.items()
            for ev in getattr(self, attr)
        ]
        doc = {name: getattr(self, name) for name in self.SETTINGS}
        return json.dumps({**doc, "events": events}, indent=2)

    @classmethod
    def from_json(cls, text: str, **pool):
        """Parse a plan document; ``pool`` goes to the plan's checks
        (``p=``, ``spares=``: :meth:`FaultPlan.validate_ranks`)."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"a {cls.NOUN} plan is a JSON object, not {type(doc).__name__}")
        settings = {}
        for name, value in doc.items():
            if name == "events":
                continue
            typ = cls.SETTINGS.get(name)
            if typ is None:
                raise ValueError(f"unknown {cls.NOUN} plan setting {name!r}")
            if not _typed(value, (typ,)):
                raise ValueError(f"setting {name!r} must be {typ.__name__}, not {value!r}")
            settings[name] = typ(value)
        raw = doc.get("events", [])
        if not isinstance(raw, list):
            raise ValueError(f"'events' must be a list, not {type(raw).__name__}")
        events: dict[str, list] = {attr: [] for attr, _ in cls.KINDS.values()}
        for i, ev in enumerate(raw):
            if not isinstance(ev, dict):
                raise ValueError(f"event #{i}: an event is a JSON object, not {ev!r}")
            kind = ev.get("kind")
            if not isinstance(kind, str) or kind not in cls.KINDS:
                raise ValueError(f"event #{i}: unknown {cls.NOUN} event kind {kind!r}")
            attr, event_cls = cls.KINDS[kind]
            events[attr].append(_event(event_cls, ev, f"event #{i} ({kind})"))
        plan = cls(**{a: tuple(evs) for a, evs in events.items()}, **settings)
        return plan._checked(**pool)

    @classmethod
    def load(cls, path: str, **pool):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read(), **pool)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def _typed(value, types: tuple) -> bool:
    """Whether a JSON value fits ``types``: an int fits ``float``, a bool
    fits only ``bool``."""
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types) or (isinstance(value, int) and float in types)


def _event(event_cls: type, ev: dict, where: str):
    """``event_cls`` built from the object ``ev`` (its ``"kind"`` aside)."""
    hints = get_type_hints(event_cls)
    args = {}
    for name, value in ev.items():
        if name == "kind":
            continue
        if name not in hints:
            raise ValueError(f"{where}: unknown field {name!r}")
        types = get_args(hints[name]) or (hints[name],)
        if not _typed(value, types):
            raise ValueError(f"{where}: field {name!r} has the wrong type ({value!r})")
        args[name] = value
    for f in fields(event_cls):
        if f.name not in args and f.default is MISSING:
            raise ValueError(f"{where}: missing field {f.name!r}")
    try:
        return event_cls(**args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class FaultPlan(PlanFormat):
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

    KINDS = {
        "crash": ("crashes", WorkerCrash),
        "straggler": ("stragglers", Straggler),
        "drop": ("losses", MessageLoss),
        "join": ("joins", WorkerJoin),
    }
    SETTINGS = {"timeout": float, "supervise": bool}

    def _checked(self, p: Optional[int] = None, spares: int = 0) -> "FaultPlan":
        return self if p is None else self.validate_ranks(p, spares)

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


def normalize_plan(plan: Optional[PlanFormat]) -> Optional[PlanFormat]:
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
