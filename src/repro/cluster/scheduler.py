"""Deterministic discrete-event scheduler for the virtual cluster.

Conservative PDES over generator processes.  Invariants:

* Every process owns a virtual clock that only moves forward.
* A message sent when the sender's clock is ``t`` arrives at
  ``t + busy(nbytes) + latency`` — strictly after ``t``.
* The scheduler always advances the process with the globally smallest
  *next-action time*: its clock if runnable, or the earliest matching
  mailbox arrival if blocked on a receive.  Since any not-yet-sent message
  must be sent at or after its sender's current clock (and hence arrive
  strictly later), delivering the currently-earliest matching message to
  the globally minimal process can never violate causality.

Determinism: ties break on (time, rank, mailbox sequence number); no host
clocks or hash-order iteration are involved anywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.message import Message, payload_nbytes
from repro.cluster.network import FAST_ETHERNET, NetworkModel
from repro.cluster.process import (
    BcastOp,
    ComputeOp,
    ProcContext,
    RecvOp,
    SendOp,
    SimProcess,
    Span,
)
from repro.fault.plan import FaultPlan, FaultRecord, RankFaults

__all__ = ["Scheduler", "DeadlockError", "CommStats"]


class DeadlockError(RuntimeError):
    """All processes blocked on receive with no messages in flight."""


@dataclass
class CommStats:
    """Aggregate communication accounting for one run (feeds Table 4)."""

    messages: int = 0
    bytes_total: int = 0
    bytes_by_tag: dict = field(default_factory=dict)
    bytes_by_link: dict = field(default_factory=dict)  # (src, dst) -> bytes

    def record(self, msg: Message) -> None:
        self.messages += 1
        self.bytes_total += msg.nbytes
        self.bytes_by_tag[msg.tag] = self.bytes_by_tag.get(msg.tag, 0) + msg.nbytes
        key = (msg.src, msg.dst)
        self.bytes_by_link[key] = self.bytes_by_link.get(key, 0) + msg.nbytes

    def merge(self, other: "CommStats") -> None:
        """Fold another rank's accounting into this one (real backends
        collect per-rank stats and merge them into the global view)."""
        self.messages += other.messages
        self.bytes_total += other.bytes_total
        for tag, b in other.bytes_by_tag.items():
            self.bytes_by_tag[tag] = self.bytes_by_tag.get(tag, 0) + b
        for link, b in other.bytes_by_link.items():
            self.bytes_by_link[link] = self.bytes_by_link.get(link, 0) + b

    @property
    def mbytes_total(self) -> float:
        return self.bytes_total / (1024.0 * 1024.0)


class _ProcState:
    __slots__ = (
        "proc",
        "gen",
        "clock",
        "blocked_on",
        "deadline",
        "done",
        "crashed",
        "mailbox",
        "faults",
    )

    def __init__(self, proc: SimProcess, gen, faults: RankFaults):
        self.proc = proc
        self.gen = gen
        self.clock = 0.0
        self.blocked_on: Optional[RecvOp] = None
        #: absolute virtual deadline of a pending timed receive.
        self.deadline: Optional[float] = None
        self.done = False
        self.crashed = False
        # heap of (arrival_time, seq, Message)
        self.mailbox: list = []
        #: this rank's injected events and their trigger counters.
        self.faults = faults


class Scheduler:
    """Runs a set of :class:`SimProcess` instances to completion."""

    def __init__(
        self,
        procs: list[SimProcess],
        network: NetworkModel = FAST_ETHERNET,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        record_trace: bool = False,
        max_events: int = 50_000_000,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if len({p.rank for p in procs}) != len(procs):
            raise ValueError("duplicate ranks")
        self.network = network
        self.cost_model = cost_model
        self.stats = CommStats()
        self.trace: list[Span] = []
        self.record_trace = record_trace
        self.max_events = max_events
        self.fault_plan = fault_plan
        #: injected events as they fire (crash/straggle/drop), in time order.
        self.fault_log: list[FaultRecord] = []
        self._seq = 0
        self._states: dict[int, _ProcState] = {}
        self.n_procs = len(procs)
        for p in sorted(procs, key=lambda p: p.rank):
            ctx = ProcContext(p.rank, self.n_procs, partial(self.clock_of, p.rank))
            faults = fault_plan.for_rank(p.rank) if fault_plan is not None else RankFaults()
            self._states[p.rank] = _ProcState(p, p.run(ctx), faults)

    # -- introspection -----------------------------------------------------------
    def clock_of(self, rank: int) -> float:
        return self._states[rank].clock

    @property
    def makespan(self) -> float:
        """Completion time of the whole run (max clock)."""
        return max(s.clock for s in self._states.values())

    def crashed_ranks(self) -> list[int]:
        """Ranks killed by injected crashes (their final state is stale)."""
        return sorted(r for r, st in self._states.items() if st.crashed)

    # -- core loop -----------------------------------------------------------------
    def run(self) -> float:
        """Execute all processes; returns the makespan in virtual seconds."""
        events = 0
        # Prime every generator to its first yield.
        for rank in sorted(self._states):
            self._step(rank, first=True)
        while True:
            rank, when = self._pick_next()
            if rank is None:
                break
            events += 1
            if events > self.max_events:  # pragma: no cover - runaway guard
                raise RuntimeError("scheduler exceeded max_events; runaway simulation?")
            self._step(rank, wake_time=when)
        return self.makespan

    def _pick_next(self) -> tuple[Optional[int], float]:
        """Next process to advance: smallest next-action time, tie on rank.

        A blocked process's next action is the earliest of: its earliest
        matching arrival, its receive deadline (timed receives resume
        with ``None``), and its pending ``at_time`` crash.
        """
        best_rank: Optional[int] = None
        best_time = float("inf")
        any_alive = False
        for rank in sorted(self._states):
            st = self._states[rank]
            if st.done:
                continue
            any_alive = True
            t: Optional[float] = None
            if st.blocked_on is None:
                t = st.clock  # runnable (shouldn't happen between steps)
            else:
                arr = self._earliest_match(st)
                if arr is not None:
                    t = max(st.clock, arr)
                if st.deadline is not None:
                    t = st.deadline if t is None else min(t, st.deadline)
            at_time = self._crash_time(st)
            if at_time is not None:
                tc = max(st.clock, at_time)
                t = tc if t is None else min(t, tc)
            if t is None:
                continue
            if t < best_time:
                best_time = t
                best_rank = rank
        if best_rank is None:
            if any_alive:
                raise DeadlockError(
                    "all live processes blocked on receive with empty mailboxes"
                )
            return None, 0.0
        return best_rank, best_time

    def _earliest_match(self, st: _ProcState) -> Optional[float]:
        spec = st.blocked_on
        best = None
        for arrival, seq, msg in st.mailbox:
            if spec.matches(msg) and (best is None or (arrival, seq) < best[:2]):
                best = (arrival, seq, msg)
        return best[0] if best else None

    def _pop_match(self, st: _ProcState) -> Message:
        spec = st.blocked_on
        best_i = -1
        best_key = None
        for i, (arrival, seq, msg) in enumerate(st.mailbox):
            if spec.matches(msg) and (best_key is None or (arrival, seq) < best_key):
                best_key = (arrival, seq)
                best_i = i
        assert best_i >= 0
        return st.mailbox.pop(best_i)[2]

    def _kill(self, st: _ProcState, when: float, reason: str) -> None:
        """Crash one process: close its generator, drop its mailbox."""
        st.clock = max(st.clock, when)
        st.done = True
        st.crashed = True
        st.blocked_on = None
        st.deadline = None
        st.mailbox.clear()
        st.gen.close()
        self.fault_log.append(
            FaultRecord(kind="crash", rank=st.proc.rank, time=st.clock, detail=reason)
        )

    def _crash_time(self, st: _ProcState) -> Optional[float]:
        crash = st.faults.crash
        return None if crash is None else crash.at_time

    def _step(self, rank: int, first: bool = False, wake_time: Optional[float] = None) -> None:
        """Advance one process until it blocks on recv, finishes or dies."""
        st = self._states[rank]
        send_value = None
        if not first and st.blocked_on is not None:
            # Woken while blocked: an at_time crash, a matching message,
            # or a receive deadline — in that priority order at the wake
            # instant.
            tc = self._crash_time(st)
            arr = self._earliest_match(st)
            if tc is not None and (arr is None or tc <= max(st.clock, arr)) and (
                st.deadline is None or tc <= st.deadline
            ):
                self._kill(st, tc, "at_time (blocked)")
                return
            if arr is not None and (st.deadline is None or max(st.clock, arr) <= st.deadline):
                msg = self._pop_match(st)
                st.clock = max(st.clock, msg.arrival_time)
                st.blocked_on = None
                st.deadline = None
                if st.faults.crashes_on(msg.tag):
                    crash = st.faults.crash
                    self._kill(st, st.clock, f"on_recv={crash.on_recv} tag={crash.tag}")
                    return
                send_value = msg
            else:
                # Timed receive expired with no matching message.
                st.clock = max(st.clock, st.deadline)
                st.blocked_on = None
                st.deadline = None
                send_value = None
        while True:
            tc = self._crash_time(st)
            if tc is not None and st.clock >= tc:
                self._kill(st, tc, "at_time")
                return
            try:
                op = st.gen.send(send_value)
            except StopIteration:
                st.done = True
                return
            send_value = None
            if isinstance(op, ComputeOp):
                dt = self.cost_model.seconds_for_ops(op.ops)
                dt *= st.faults.slowdown(st.clock)
                if tc is not None and st.clock + dt >= tc:
                    # The crash interrupts the compute interval.
                    if self.record_trace:
                        self.trace.append(Span(rank, op.label, st.clock, tc))
                    self._kill(st, tc, "at_time (mid-compute)")
                    return
                if self.record_trace:
                    self.trace.append(Span(rank, op.label, st.clock, st.clock + dt))
                st.clock += dt
            elif isinstance(op, SendOp):
                self._send(st, op.dst, op.payload, op.tag)
            elif isinstance(op, BcastOp):
                for dst in op.dsts:
                    self._send(st, dst, op.payload, op.tag)
            elif isinstance(op, RecvOp):
                st.blocked_on = op
                st.deadline = None if op.timeout is None else st.clock + op.timeout
                return
            else:  # pragma: no cover - defensive
                raise TypeError(f"process {rank} yielded non-syscall {op!r}")

    def _send(self, st: _ProcState, dst: int, payload: object, tag: str) -> None:
        if dst not in self._states:
            raise ValueError(f"send to unknown rank {dst}")
        nbytes = payload_nbytes(payload)
        busy = self.network.sender_busy_time(nbytes)
        st.clock += busy
        arrival = st.clock + self.network.arrival_delay()
        self._seq += 1
        msg = Message(
            src=st.proc.rank,
            dst=dst,
            tag=tag,
            payload=payload,
            nbytes=nbytes,
            send_time=st.clock,
            arrival_time=arrival,
            seq=self._seq,
        )
        # The sender is always charged (it cannot know the network will
        # drop the message); injected losses only suppress delivery.
        self.stats.record(msg)
        drop = st.faults.drop_record(st.proc.rank, dst, tag, st.clock)
        if drop is not None:
            self.fault_log.append(drop)
            return
        if self._states[dst].done:
            # Messages to a crashed rank silently vanish.
            return
        self._states[dst].mailbox.append((arrival, self._seq, msg))
