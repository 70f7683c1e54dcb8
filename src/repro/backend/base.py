"""Execution-backend protocol: one algorithm, many substrates.

Every parallel strategy in :mod:`repro.parallel` is written as a set of
:class:`~repro.cluster.process.SimProcess` generators that ``yield``
syscalls (send / bcast / recv / compute) to whatever is driving them.
A *backend* supplies that driver:

* :class:`~repro.backend.sim.SimBackend` — the discrete-event simulator
  (deterministic virtual time over the modelled fabric and cost model,
  the paper's evaluation substrate);
* :class:`~repro.backend.local.LocalProcessBackend` — real
  ``multiprocessing`` processes with pipe transport and wall-clock time;
* :class:`~repro.backend.mpi.MPIBackend` — a real MPI communicator via
  mpi4py (when installed).

Every rank runs against a :class:`~repro.cluster.process.ProcContext`
— the simulator hands out plain ones, the real substrates a subclass —
so the *same* code learns the *same* theory on every substrate; only the
timing/communication measurements change meaning (virtual seconds vs.
wall-clock seconds).

The two real substrates share that subclass,
:class:`WallClockContext`: the clock, the :class:`CommStats` accounting,
the single wire encoding per send, fault injection from the rank's
:class:`~repro.fault.plan.RankFaults` and the ``execute`` dispatch live
there; a transport (pipes, an MPI communicator) adds only ``_ship`` and
``_receive``.  A fault plan is an argument of :meth:`Backend.run`,
normalised there once — backends hold no plan between runs.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.cluster.message import CommStats, Message, marshal_payload, unmarshal_payload
from repro.cluster.process import (
    BcastOp,
    ComputeOp,
    ProcContext,
    RecvOp,
    SendOp,
    SimProcess,
)
from repro.fault.plan import (
    MAX_STRAGGLE_SLEEP,
    FaultPlan,
    FaultRecord,
    RankFaults,
    normalize_plan,
)
from repro.obs.span import Span

__all__ = [
    "Backend",
    "BackendRun",
    "BackendError",
    "BackendTimeoutError",
    "BackendUnavailableError",
    "InjectedCrash",
    "WallClockContext",
    "drive",
]


class BackendError(RuntimeError):
    """A backend failed to execute the process set."""


class BackendTimeoutError(BackendError):
    """The run exceeded the backend's wall-clock timeout (likely deadlock)."""


class BackendUnavailableError(BackendError):
    """The backend's substrate is not usable on this host (e.g. no mpi4py)."""


class InjectedCrash(BaseException):
    """Raised inside a rank to simulate a hard worker crash.

    A BaseException so no algorithm-level handler can swallow the death.
    """


@dataclass
class BackendRun:
    """Artifacts of one completed execution, whatever the substrate.

    ``seconds`` is virtual time under :class:`SimBackend` and real
    wall-clock time under the real backends; ``comm`` always sums the
    same wire-codec payload sizes, so Table 4-style communication
    numbers are directly comparable across substrates.
    """

    #: makespan: virtual seconds (sim) or wall-clock seconds (local/mpi).
    seconds: float
    comm: CommStats
    #: final per-rank clocks, rank order.
    clocks: list[float] = field(default_factory=list)
    trace: list[Span] = field(default_factory=list)
    #: final process objects in rank order.  For in-process backends these
    #: are the very objects passed in; for multi-process backends they are
    #: what the children shipped back (:meth:`SimProcess.final_state`) —
    #: read run artifacts (learned theory, epoch logs, ...) from here,
    #: never from the inputs.
    #: Ranks that crashed (injected faults) are absent.
    procs: list[SimProcess] = field(default_factory=list)
    #: injected fault events observed by the substrate, in firing order.
    fault_log: list = field(default_factory=list)

    def proc(self, rank: int) -> SimProcess:
        for p in self.procs:
            if p.rank == rank:
                return p
        raise KeyError(f"no process with rank {rank}")

    @property
    def makespan(self) -> float:
        return self.seconds

    @property
    def mbytes(self) -> float:
        return self.comm.mbytes_total

    @classmethod
    def from_reports(cls, reports: Iterable[tuple], fault_log: Iterable = ()) -> "BackendRun":
        """Merge per-rank :meth:`WallClockContext.report` tuples, in the
        order given, into the run's global view.  ``fault_log`` is what
        the supervisor itself observed (ranks that died without reporting).
        """
        from repro.obs.span import decode_batch  # lazy: obs imports parallel imports backend

        run = cls(seconds=0.0, comm=CommStats(), fault_log=list(fault_log))
        for proc, stats, elapsed, span_bytes, rank_faults in reports:
            if proc is not None:
                run.procs.append(proc)
            run.clocks.append(elapsed)
            run.trace.extend(decode_batch(span_bytes))
            run.comm.merge(stats)
            run.fault_log.extend(rank_faults)
        run.trace.sort(key=lambda s: (s.start, s.rank))
        run.fault_log.sort(key=lambda f: f.time)
        run.seconds = max(run.clocks, default=0.0)
        return run


class Backend(ABC):
    """Executes a set of :class:`SimProcess` ranks to completion."""

    #: registry name ("sim", "local", "mpi").
    name: str = "?"
    #: whether runs record a :class:`~repro.obs.span.Span` per
    #: compute interval into :attr:`BackendRun.trace`.
    record_trace: bool = False

    def run(
        self, procs: Sequence[SimProcess], fault_plan: Optional[FaultPlan] = None
    ) -> BackendRun:
        """Run all ranks to completion and return the merged artifacts.

        ``fault_plan`` arms deterministic fault injection for this run
        only; an empty plan is the same as none.
        """
        return self._run(sorted(procs, key=lambda p: p.rank), normalize_plan(fault_plan))

    @abstractmethod
    def _run(self, procs: list[SimProcess], plan: Optional[FaultPlan]) -> BackendRun:
        """Execute ``procs`` (rank order) under ``plan`` (None, or a plan
        that does something)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


def require_contiguous_ranks(procs: Sequence[SimProcess]) -> None:
    """The real substrates address ranks ``0..n-1``; reject anything else."""
    ranks = [p.rank for p in procs]
    if ranks != list(range(len(ranks))):
        raise ValueError(f"ranks must be contiguous 0..{len(ranks) - 1}, got {ranks}")


class WallClockContext(ProcContext):
    """Immediate-mode context for one rank of a real substrate.

    ``execute`` performs each yielded syscall for real.  Everything the
    substrates have in common is here — the wall clock, ``CommStats``
    accounting of the marshalled bytes (which are the bytes shipped), the
    injected drop / crash / straggle triggers and their ``fault_log`` —
    so a transport subclass supplies only :meth:`_ship` and
    :meth:`_receive`.  ``faults`` is the rank's share of the run's plan,
    or None when the run has no plan.
    """

    def __init__(
        self,
        rank: int,
        n_procs: int,
        record_trace: bool = False,
        faults: Optional[RankFaults] = None,
    ):
        super().__init__(rank, n_procs)
        self.record_trace = record_trace
        #: under an active fault plan a dead peer is routed around by the
        #: self-healing master, not an error of this rank.
        self.fault_tolerant = faults is not None
        self._faults = faults if faults is not None else RankFaults()
        #: injected events observed by this rank, shipped home with its
        #: report so every substrate returns the same log.
        self.fault_log: list[FaultRecord] = []
        self.stats = CommStats()
        self.trace: list[Span] = []
        self._seq = 0
        self.reset_clock()

    @property
    def clock(self) -> float:
        """Wall-clock seconds since this rank started."""
        return time.perf_counter() - self._t0

    def reset_clock(self) -> None:
        self._t0 = time.perf_counter()
        self._last_mark = 0.0

    # -- transport -----------------------------------------------------------------
    def _ship(self, dst: int, tag: str, data: bytes) -> None:
        """Put one marshalled payload on the wire, without blocking."""
        raise NotImplementedError

    def _receive(self, spec: RecvOp) -> Optional[Message]:
        """Block for the next message matching ``spec`` (built with
        :meth:`_message`); None when ``spec.timeout`` expires first."""
        raise NotImplementedError

    # -- execution -----------------------------------------------------------------
    def execute(self, op):
        """Perform one syscall; returns a Message for receives."""
        if isinstance(op, SendOp):
            self._post(op.dst, op.payload, op.tag)
            return None
        if isinstance(op, BcastOp):
            for dst in op.dsts:
                self._post(dst, op.payload, op.tag)
            return None
        if isinstance(op, RecvOp):
            msg = self._receive(op)
            # Injected crash: die when about to process the n-th matching
            # message — the same trigger the simulator counts.
            if msg is not None and self._faults.crashes_on(msg.tag):
                raise InjectedCrash()
            return msg
        if isinstance(op, ComputeOp):
            # Real CPU time has already passed between yields; a straggler
            # sleeps the extra share of it, then the interval is traced.
            now = self.clock
            extra = (now - self._last_mark) * (self._faults.slowdown(now) - 1.0)
            if extra > 0:
                time.sleep(min(extra, MAX_STRAGGLE_SLEEP))
                now = self.clock
            if self.record_trace:
                self.trace.append(Span(self.rank, op.label, self._last_mark, now))
            self._last_mark = now
            return None
        raise TypeError(f"rank {self.rank} yielded non-syscall {op!r}")

    def _post(self, dst: int, payload: object, tag: str) -> None:
        # The marshalled bytes are both what is accounted and what is
        # shipped, so CommStats match the sim backend exactly.
        data = marshal_payload(payload)
        now = self.clock
        self._seq += 1
        self.stats.record(
            Message(
                src=self.rank,
                dst=dst,
                tag=tag,
                payload=payload,
                nbytes=len(data),
                send_time=now,
                arrival_time=now,
                seq=self._seq,
            )
        )
        # Injected message loss: the sender is charged (it cannot know the
        # network dropped the message), the payload never leaves the node.
        drop = self._faults.drop_record(self.rank, dst, tag, now)
        if drop is not None:
            self.fault_log.append(drop)
            return
        self._ship(dst, tag, data)

    def _message(self, src: int, tag: str, data: bytes) -> Message:
        """An arrived payload as the Message the generator is resumed with."""
        self._seq += 1
        now = self.clock
        return Message(
            src=src,
            dst=self.rank,
            tag=tag,
            payload=unmarshal_payload(data),
            nbytes=len(data),
            send_time=now,
            arrival_time=now,
            seq=self._seq,
        )

    def report(self, proc: Optional[SimProcess], elapsed: float) -> tuple:
        """What this rank ships home for :meth:`BackendRun.from_reports`.

        The process travels as its :meth:`SimProcess.final_state` — asked
        for here, at the end of the run, so the *outbound* pickle of a
        ``spawn`` start still carries the whole process.  The trace
        travels as a wire-codec SpanBatch (code 28), the same encoding
        ``repro trace --trace-out`` writes — one format for spans whether
        they cross a pipe, an MPI gather, or land in a file.
        """
        from repro.obs.span import encode_batch

        home = proc.final_state() if proc is not None else None
        return (home, self.stats, elapsed, encode_batch(self.rank, self.trace), self.fault_log)


def drive(proc: SimProcess, ctx: WallClockContext) -> None:
    """Drive one process generator against an immediate-mode context.

    ``ctx.execute(op)`` performs one syscall and returns the value the
    generator is resumed with (a :class:`~repro.cluster.message.Message`
    for receives, ``None`` otherwise).  Used by the real backends; the
    sim backend's event loop interleaves generators itself.
    """
    gen = proc.run(ctx)
    result = None
    try:
        while True:
            op = gen.send(result)
            result = ctx.execute(op)
    except StopIteration:
        return
