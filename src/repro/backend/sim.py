"""SimBackend: the discrete-event simulator behind the backend protocol.

The default substrate, and the one place the paper's 2005 fabric and
per-op cost are set: ``SimBackend(network=, cost_model=)``.  Each run is
a conservative PDES over the rank generators.  Invariants:

* Every process owns a virtual clock that only moves forward.
* A message sent when the sender's clock is ``t`` arrives at
  ``t + busy(nbytes) + latency`` — strictly after ``t``.
* The loop always advances the process with the globally smallest
  *next-action time*: its clock if runnable, or the earliest matching
  mailbox arrival if blocked on a receive.  Since any not-yet-sent message
  must be sent at or after its sender's current clock (and hence arrive
  strictly later), delivering the currently-earliest matching message to
  the globally minimal process can never violate causality.

Determinism: ties break on (time, rank, mailbox sequence number); no host
clocks or hash-order iteration are involved anywhere.  The run's fault
plan is counted with the same per-rank
:class:`~repro.fault.plan.RankFaults` objects the wall-clock substrates
use.

>>> from repro.cluster.process import SimProcess
>>> from repro.parallel.messages import Ping, Pong
>>> class Pinger(SimProcess):
...     def run(self, ctx):
...         yield ctx.send(1, Ping(token=1), tag="t")
...         msg = yield ctx.recv(src=1)
>>> class Ponger(SimProcess):
...     def run(self, ctx):
...         msg = yield ctx.recv(src=0)
...         yield ctx.send(0, Pong(rank=1, token=1), tag="t")
>>> SimBackend().run([Pinger(0), Ponger(1)]).comm.messages
2
"""

from __future__ import annotations

from typing import Optional

from repro.backend.base import Backend, BackendRun
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.message import CommStats, Message, payload_nbytes
from repro.cluster.network import FAST_ETHERNET, NetworkModel
from repro.cluster.process import (
    BcastOp,
    ComputeOp,
    ProcContext,
    RecvOp,
    SendOp,
    SimProcess,
)
from repro.fault.plan import FaultPlan, FaultRecord, RankFaults
from repro.obs.span import Span

__all__ = ["SimBackend", "DeadlockError", "MAX_EVENTS"]

#: runaway guard: a run that advances processes this many times is a bug.
MAX_EVENTS = 50_000_000


class DeadlockError(RuntimeError):
    """All processes blocked on receive with no messages in flight."""


class SimBackend(Backend):
    """Deterministic simulation: virtual clocks, modelled network."""

    name = "sim"

    def __init__(
        self,
        network: NetworkModel = FAST_ETHERNET,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        record_trace: bool = False,
    ):
        self.network = network
        self.cost_model = cost_model
        self.record_trace = record_trace

    def _run(self, procs: list[SimProcess], plan: Optional[FaultPlan]) -> BackendRun:
        return _Loop(self, procs, plan).run()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimBackend(network={self.network!r})"


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


class _Loop:
    """One run of :class:`SimBackend`: the ranks' states and the
    :class:`BackendRun` it fills — communication, trace and the injected
    events as they fire (crash/straggle/drop), in time order."""

    def __init__(self, backend: SimBackend, procs: list[SimProcess], plan: Optional[FaultPlan]):
        if len({p.rank for p in procs}) != len(procs):
            raise ValueError("duplicate ranks")
        self.network = backend.network
        self.cost_model = backend.cost_model
        self.record_trace = backend.record_trace
        self.out = BackendRun(seconds=0.0, comm=CommStats())
        self._seq = 0
        self._states: dict[int, _ProcState] = {}
        for p in procs:
            ctx = ProcContext(p.rank, len(procs), self._clock_fn(p.rank))
            faults = plan.for_rank(p.rank) if plan is not None else RankFaults()
            self._states[p.rank] = _ProcState(p, p.run(ctx), faults)

    def _clock_fn(self, rank: int):
        return lambda: self._states[rank].clock

    def run(self) -> BackendRun:
        """Execute all processes to completion.

        Crashed ranks' process objects hold stale pre-crash state (their
        logical workers were rebuilt elsewhere); per the BackendRun
        contract they are absent from the returned procs.
        """
        events = 0
        # Prime every generator to its first yield.
        for rank in sorted(self._states):
            self._step(rank, first=True)
        while True:
            rank = self._pick_next()
            if rank is None:
                break
            events += 1
            if events > MAX_EVENTS:  # pragma: no cover - runaway guard
                raise RuntimeError("simulation exceeded MAX_EVENTS; runaway simulation?")
            self._step(rank)
        states = list(self._states.values())
        self.out.clocks = [st.clock for st in states]
        self.out.seconds = max(self.out.clocks)
        self.out.procs = [st.proc for st in states if not st.crashed]
        return self.out

    def _pick_next(self) -> Optional[int]:
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
        if best_rank is None and any_alive:
            raise DeadlockError("all live processes blocked on receive with empty mailboxes")
        return best_rank

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
        self.out.fault_log.append(
            FaultRecord(kind="crash", rank=st.proc.rank, time=st.clock, detail=reason)
        )

    def _crash_time(self, st: _ProcState) -> Optional[float]:
        crash = st.faults.crash
        return None if crash is None else crash.at_time

    def _step(self, rank: int, first: bool = False) -> None:
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
                        self.out.trace.append(Span(rank, op.label, st.clock, tc))
                    self._kill(st, tc, "at_time (mid-compute)")
                    return
                if self.record_trace:
                    self.out.trace.append(Span(rank, op.label, st.clock, st.clock + dt))
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
        self.out.comm.record(msg)
        drop = st.faults.drop_record(st.proc.rank, dst, tag, st.clock)
        if drop is not None:
            self.out.fault_log.append(drop)
            return
        if self._states[dst].done:
            # Messages to a crashed rank silently vanish.
            return
        self._states[dst].mailbox.append((arrival, self._seq, msg))
