"""MPIBackend: run the generators on a real MPI communicator (mpi4py).

The :class:`~repro.cluster.process.ProcContext` API was designed to map
one-to-one onto mpi4py's lowercase methods, so the P²-MDIE master/worker
code runs on a real cluster by swapping the context object:

==========================  ==============================================
generator                    :class:`MPIContext`
==========================  ==============================================
``yield ctx.send(d, x, t)``  ``comm.send(bytes, dest=d, tag=id)``
``yield ctx.bcast(x, t)``    loop of ``comm.send``
``m = yield ctx.recv()``     ``comm.recv(source=ANY_SOURCE, ...)``
``yield ctx.compute(ops)``   (traced no-op — real CPUs charge themselves)
==========================  ==============================================

:class:`MPIContext` is the MPI transport of the shared
:class:`~repro.backend.base.WallClockContext`: what goes on the
communicator is the payload's wire-codec bytes that ``CommStats`` counted
(the same bytes the local backend puts on its pipes), and a received
message is sized by the bytes that arrived.

MPI execution is SPMD: *every* rank of an ``mpiexec`` launch calls
:meth:`MPIBackend.run` with the same process list; each rank drives only
its own generator, then final process states and communication
statistics are gathered to rank 0, which assembles the complete
:class:`~repro.backend.base.BackendRun`.  Non-root ranks receive a run
carrying only the rank-0 artifacts — harness code should act on the
result only where ``backend.is_root`` is true.

Two surfaces beyond the plain 1:1 mapping make the fault-tolerance
protocol (:mod:`repro.fault`) work on a real cluster:

* **Timed receives** — ``RecvOp.timeout`` is honoured with a
  deadline-bounded ``comm.iprobe`` poll loop that resumes the generator
  with ``None`` on expiry, exactly like the sim scheduler and the local
  backend.  That is the whole surface
  :class:`~repro.parallel.master.Master` needs for heartbeat
  probes and silence detection.
* **The halt tag** — MPI has no notion of "a peer exited", so ranks still
  blocked in a receive (retired crash victims, falsely-declared-dead
  workers) are released with a backend-level :data:`HALT_TAG` control
  message.  A context constructed with ``watch_halt=True`` raises
  :class:`MPIHalt` when one arrives; the tag id lives outside
  :data:`_TAG_IDS`, so halt messages are never visible to the generators.

Fault-tolerance parity with sim/local (``run(procs, fault_plan=...)``):

* **Crashes retire in place.**  A real rank death would abort the whole
  ``mpiexec`` job, so an injected :class:`~repro.fault.plan.WorkerCrash`
  instead stops the rank's generator (same deterministic about-to-process
  the *n*-th matching message trigger as the other substrates) and parks
  the rank in a quiet drain loop: it consumes and discards everything
  sent its way, answers nothing — exactly what a dead worker looks like
  to the heartbeat protocol.
* **Stragglers sleep for real, message loss drops the nth send per
  link** — both in the shared context, so every injected event lands in
  the run's ``fault_log`` with the same record shape as on ``local``.
* **Shutdown barrier.**  After rank 0's generator finishes (or fails),
  it sends :data:`HALT_TAG` to every rank.  All ranks then drain residual
  traffic and meet in a ``comm.gather``; crashed/halted ranks are absent
  from ``BackendRun.procs``, matching the other substrates' contract.

mpi4py is imported lazily; constructing the backend on a host without it
raises :class:`~repro.backend.base.BackendUnavailableError` so callers can
fall back cleanly.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.backend.base import (
    Backend,
    BackendError,
    BackendRun,
    BackendUnavailableError,
    InjectedCrash,
    WallClockContext,
    drive,
    require_contiguous_ranks,
)
from repro.cluster.message import Message, Tag
from repro.cluster.process import RecvOp, SimProcess
from repro.fault.plan import FaultPlan, FaultRecord, RankFaults

__all__ = ["MPIBackend", "MPIContext", "MPIHalt", "HALT_TAG", "mpi_available"]

#: protocol tag -> MPI integer tag.  Covers *every* ``Tag`` member
#: (including the fault-tolerance ping/pong/routing tags) with a distinct
#: id, so tag-filtered probes and receives are unambiguous on a real
#: communicator — completeness is enforced by the wire registry test.
_TAG_IDS = {
    Tag.LOAD_EXAMPLES: 1,
    Tag.START_PIPELINE: 2,
    Tag.LEARN_RULE: 3,
    Tag.RULES: 4,
    Tag.EVALUATE: 5,
    Tag.RESULT: 6,
    Tag.MARK_COVERED: 7,
    Tag.STOP: 8,
    Tag.PING: 9,
    Tag.PONG: 10,
    Tag.ROUTING: 11,
}
_ID_TAGS = {v: k for k, v in _TAG_IDS.items()}

#: backend-level shutdown-barrier tag (outside ``_TAG_IDS`` — never
#: delivered to generators).  Rank 0 sends it to every rank after its own
#: generator finishes.
HALT_TAG = 90

#: iprobe poll interval bounds (seconds): start fine-grained so heartbeat
#: round-trips stay sharp, back off to keep idle waits cheap.
_POLL_MIN = 0.0005
_POLL_MAX = 0.002

#: seconds of post-halt quiet time before a rank stops draining stray
#: messages (late pongs, stop fan-out to retired ranks, ...).
_RESIDUAL_DRAIN = 0.2


class MPIHalt(Exception):
    """Rank 0 released this rank via the backend halt barrier."""


def mpi_available() -> bool:
    try:
        import mpi4py  # noqa: F401

        return True
    except ImportError:
        return False


class MPIContext(WallClockContext):
    """The MPI transport of one rank.

    ``watch_halt`` arms interception of the backend's :data:`HALT_TAG`
    (non-root ranks of a run with a fault plan); without it an untimed
    receive is the plain blocking ``comm.recv`` of the mapping above.
    """

    def __init__(
        self,
        comm=None,
        watch_halt: bool = False,
        record_trace: bool = False,
        faults: Optional[RankFaults] = None,
    ):
        if comm is None:
            from mpi4py import MPI  # lazy; raises ImportError offline

            comm = MPI.COMM_WORLD
        super().__init__(comm.Get_rank(), comm.Get_size(), record_trace, faults)
        self._comm = comm
        self.watch_halt = watch_halt

    def _ship(self, dst: int, tag: str, data: bytes) -> None:
        self._comm.send(data, dest=dst, tag=_TAG_IDS.get(tag, 99))

    def _receive(self, op: RecvOp) -> Optional[Message]:
        from mpi4py import MPI  # noqa: PLC0415 - lazy, only recv needs constants

        src = MPI.ANY_SOURCE if op.src is None else op.src
        tag = MPI.ANY_TAG if op.tag is None else _TAG_IDS.get(op.tag, 99)
        status = MPI.Status()
        if op.timeout is None and not self.watch_halt:
            return self._arrived(status, self._comm.recv(source=src, tag=tag, status=status))
        # Timed (or halt-watched) receive: MPI has no recv-with-timeout, so
        # poll iprobe against a wall-clock deadline and resume the
        # generator with None on expiry — the same contract as the sim
        # scheduler and the local backend's pipe wait.
        deadline = None if op.timeout is None else time.perf_counter() + op.timeout
        poll = _POLL_MIN
        while True:
            if self.watch_halt and self._comm.iprobe(source=MPI.ANY_SOURCE, tag=HALT_TAG):
                raise MPIHalt()
            if self._comm.iprobe(source=src, tag=tag):
                return self._arrived(status, self._comm.recv(source=src, tag=tag, status=status))
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            time.sleep(poll)
            poll = min(poll * 2, _POLL_MAX)

    def _arrived(self, status, shipped) -> Message:
        if self.watch_halt and status.Get_tag() == HALT_TAG:
            # An ANY_TAG iprobe can match a halt that races the dedicated
            # halt check above; it is still a halt, not a message.
            raise MPIHalt()
        tag = status.Get_tag()
        return self._message(status.Get_source(), _ID_TAGS.get(tag, str(tag)), shipped)


class MPIBackend(Backend):
    """Real distributed-memory execution through mpi4py.

    A non-empty ``fault_plan`` handed to :meth:`run` arms deterministic
    fault injection with the same triggers and ``fault_log`` shape as the
    sim and local backends (crashes retire the rank in place; ``at_time``
    crashes are sim-only and ignored here, as on the local backend).
    Spare hosts are simply the extra ranks ``p+1..p+spares`` of the
    ``mpiexec`` launch.
    """

    name = "mpi"

    def __init__(self, comm=None, record_trace: bool = False):
        if comm is None and not mpi_available():
            raise BackendUnavailableError(
                "mpi4py is not installed; install it (and launch under mpiexec) "
                "to use the 'mpi' backend, or use 'sim'/'local'"
            )
        self._comm = comm
        self.record_trace = record_trace

    @property
    def is_root(self) -> bool:
        return self._resolved_comm().Get_rank() == 0

    def _resolved_comm(self):
        if self._comm is None:
            from mpi4py import MPI

            self._comm = MPI.COMM_WORLD
        return self._comm

    # -- shutdown barrier helpers ------------------------------------------------
    def _send_halt(self, comm) -> None:
        for dst in range(1, comm.Get_size()):
            comm.send(None, dest=dst, tag=HALT_TAG)

    def _drain_until_halt(self, comm) -> None:
        from mpi4py import MPI

        status = MPI.Status()
        while True:
            comm.recv(source=MPI.ANY_SOURCE, tag=MPI.ANY_TAG, status=status)
            if status.Get_tag() == HALT_TAG:
                return

    def _drain_residual(self, comm) -> None:
        """Consume stray in-flight messages (late pongs, stop fan-out to
        retired ranks) so nothing is left unmatched at finalize."""
        from mpi4py import MPI

        deadline = time.perf_counter() + _RESIDUAL_DRAIN
        while time.perf_counter() < deadline:
            if comm.iprobe(source=MPI.ANY_SOURCE, tag=MPI.ANY_TAG):
                comm.recv(source=MPI.ANY_SOURCE, tag=MPI.ANY_TAG)
            else:
                time.sleep(0.005)

    def _run(self, ordered: list[SimProcess], plan: Optional[FaultPlan]) -> BackendRun:
        comm = self._resolved_comm()
        require_contiguous_ranks(ordered)
        if len(ordered) != comm.Get_size():
            raise ValueError(
                f"{len(ordered)} ranks requested but communicator has size "
                f"{comm.Get_size()}; launch with a matching -n"
            )
        rank = comm.Get_rank()
        ft = plan is not None
        ctx = MPIContext(
            comm,
            watch_halt=(ft and rank != 0),
            record_trace=self.record_trace,
            faults=plan.for_rank(rank) if ft else None,
        )
        proc = ordered[rank]
        status = "ok"
        root_error: Optional[BaseException] = None
        try:
            drive(proc, ctx)
        except InjectedCrash:
            status = "crashed"
            ctx.fault_log.append(
                FaultRecord(
                    kind="crash", rank=rank, time=ctx.clock, detail="injected crash (retired)"
                )
            )
        except MPIHalt:
            status = "halted"
        except BaseException as exc:
            if rank == 0:
                # Run the shutdown barrier anyway so peers are released,
                # then re-raise below once everyone has gathered.
                root_error = exc
            elif ft:
                # Under an active plan a failed worker is a dead worker:
                # retire it and let the recovery protocol route around.
                status = "crashed"
                ctx.fault_log.append(
                    FaultRecord(
                        kind="crash",
                        rank=rank,
                        time=ctx.clock,
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
            else:
                raise  # real rank death aborts the MPI job, as documented
        elapsed = ctx.clock

        if ft:
            if rank == 0:
                self._send_halt(comm)
            elif status != "halted":
                # ok / crashed ranks park here (the retire-in-place drain
                # loop) until rank 0 releases them.
                self._drain_until_halt(comm)
            self._drain_residual(comm)

        gathered = comm.gather(ctx.report(proc if status == "ok" else None, elapsed), root=0)

        if rank == 0:
            if root_error is not None:
                comm.bcast(("error", f"{type(root_error).__name__}: {root_error}", None), root=0)
                raise root_error
            run = BackendRun.from_reports(gathered)
            comm.bcast(("ok", run.procs[0], run.fault_log), root=0)
            return run

        # Every SPMD rank returns through the same front-end code, which
        # reads run artifacts from the rank-0 process — so rank 0
        # broadcasts its final state (and the merged fault log).
        kind, root_proc, fault_log = comm.bcast(None, root=0)
        if kind == "error":
            raise BackendError(f"rank 0 failed: {root_proc}")
        return BackendRun(
            seconds=elapsed,
            comm=ctx.stats,
            clocks=[elapsed],
            trace=ctx.trace,
            procs=[root_proc],
            fault_log=fault_log,
        )
