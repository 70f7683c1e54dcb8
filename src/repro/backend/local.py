"""LocalProcessBackend: run the generators on real OS processes.

Each rank becomes one ``multiprocessing`` process; ranks are connected by
a full mesh of duplex pipes.  The same master/worker generators that run
in virtual time on :class:`~repro.backend.sim.SimBackend` run here
unmodified — ``compute`` syscalls become (traced) no-ops because real
CPUs charge themselves, and ``seconds`` in the returned
:class:`~repro.backend.base.BackendRun` is genuine wall-clock time.

The per-rank context is :class:`LocalContext`, the pipe transport of the
shared :class:`~repro.backend.base.WallClockContext` — clock, accounting,
fault triggers and the ``execute`` dispatch live there, identically for
the MPI backend; this module adds the pipes and the supervising parent.

Transport notes
---------------
* **Non-blocking sends.**  The simulated model (paper §2.2) makes sends
  non-blocking; a naive ``Connection.send`` is not (it blocks once the OS
  pipe buffer fills), which can deadlock a ring of mutually-sending
  ranks.  Every rank therefore owns a background *sender thread* draining
  an unbounded queue, so the generator thread never blocks on a send and
  always stays available to receive.
* **Blocking receives** poll all peer connections with
  ``multiprocessing.connection.wait``; non-matching arrivals are parked
  in a local mailbox, mirroring the scheduler's matching rules.  Timed
  receives (the fault-tolerant masters' failure detector) resume with
  ``None`` on expiry.
* **Accounting** (shared context) sizes each payload by its wire-codec
  bytes (:func:`~repro.cluster.message.marshal_payload`) into the same
  :class:`~repro.cluster.message.CommStats` as the simulation, so
  communication volumes are directly comparable across substrates.
  Payloads travel as those bytes and are decoded on receipt — the
  accounted bytes are the shipped bytes.
* **Failures.**  Child exceptions are reported with their full traceback
  over a result pipe and re-raised in the parent — aggregated across
  ranks, so the root cause is visible even when peers fail derivatively
  (EOF storms) or the run has to be timed out.  The wall-clock
  ``timeout`` remains the last-resort watchdog for true deadlocks; on
  expiry any tracebacks already reported are included in the error.
* **Fault injection** (``run(procs, fault_plan=...)``): each child gets
  its rank's :class:`~repro.fault.plan.RankFaults`.  An injected worker
  crash hard-kills the child (``os._exit``) when it is about to process
  its *n*-th matching message — the same logical trigger, counted by the
  same object, as in the simulator.  Stragglers sleep real time after
  compute intervals; message loss drops the *n*-th payload on a link
  before it reaches the pipe.  Under an active (non-empty) plan the
  parent tolerates worker deaths (the self-healing master is expected
  to recover); only rank 0's failure fails the run.
* **Placement.**  The paper runs one worker per node; left alone, the
  kernel often stacks forked siblings on one core, where each waits
  behind the other.  The parent pins worker *r* to one CPU of its
  affinity mask, round-robin (:func:`place_ranks`), and leaves the
  master — which mostly blocks in ``wait`` — on the whole mask.  A run
  that starts while another run of this process is in flight (concurrent
  ``JobScheduler`` slots) shares the cores with it and is left to the
  kernel.  With one CPU, or where the platform has no
  ``sched_getaffinity``, nothing is pinned.
  The parent also imports what a rank would otherwise import lazily
  (the wire codec and the P²-MDIE message layouts on the first send or
  receive, span encoding in the report), so forked ranks start warm
  instead of importing it once each.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import queue
import threading
import time
import traceback
from multiprocessing.connection import Connection, wait
from typing import Iterable, Iterator, Optional, Sequence

from repro.backend.base import (
    Backend,
    BackendError,
    BackendRun,
    BackendTimeoutError,
    InjectedCrash,
    WallClockContext,
    drive,
    require_contiguous_ranks,
)
from repro.cluster.message import Message
from repro.cluster.process import RecvOp, SimProcess
from repro.fault.plan import FaultPlan, FaultRecord, RankFaults

__all__ = ["LocalProcessBackend", "LocalContext"]

_SENDER_STOP = object()

#: exit code of an injected-crash child (distinguishes it from real bugs).
_CRASH_EXIT = 66

#: Local runs in flight in this process.  Process-wide on purpose: every
#: ``JobScheduler`` slot builds its own backend, and runs in concurrent
#: slots share the cores.
_in_flight = 0
_in_flight_lock = threading.Lock()


def place_ranks(
    ranks: Iterable[int], cpus: Sequence[int]
) -> dict[int, Optional[frozenset[int]]]:
    """Each rank's CPU set, or None where the rank is left unpinned.

    Worker rank ``r`` goes to ``cpus[(r - 1) % len(cpus)]``; rank 0, the
    master, keeps the whole mask.  ``cpus`` is the sorted affinity mask;
    with fewer than two CPUs there is nothing to spread over.
    """
    if len(cpus) < 2:
        return {r: None for r in ranks}
    return {r: None if r == 0 else frozenset({cpus[(r - 1) % len(cpus)]}) for r in ranks}


@contextlib.contextmanager
def _placement(n: int) -> Iterator[dict[int, Optional[frozenset[int]]]]:
    """:func:`place_ranks` for a run of ``n`` ranks on this process's mask,
    held for the run.  A run that starts while another run of this process
    is in flight pins nothing: pinned workers of runs sharing the cores
    cannot move off a busy one (two p = 2 jobs at once on two CPUs took
    10 % longer pinned, docs/performance.md)."""
    global _in_flight
    getaffinity = getattr(os, "sched_getaffinity", None)  # absent on macOS, Windows
    with _in_flight_lock:
        alone = _in_flight == 0
        _in_flight += 1
    try:
        cpus = sorted(getaffinity(0)) if alone and getaffinity is not None else []
        yield place_ranks(range(n), cpus)
    finally:
        with _in_flight_lock:
            _in_flight -= 1


class LocalContext(WallClockContext):
    """The pipe transport of one rank (runs in the child).

    A :class:`~repro.backend.base.WallClockContext` whose messages travel
    over ``peers`` (rank -> duplex pipe end): a sender thread drains an
    unbounded queue so sends never block, and receives park non-matching
    arrivals in a mailbox.
    """

    def __init__(
        self,
        rank: int,
        n_procs: int,
        peers: dict[int, Connection],
        record_trace: bool = False,
        faults: Optional[RankFaults] = None,
    ):
        super().__init__(rank, n_procs, record_trace, faults)
        self._peers = peers
        self._live_conns = list(peers.values())
        self._mailbox: list[Message] = []
        self._send_error: Optional[BaseException] = None
        self._outq: "queue.SimpleQueue" = queue.SimpleQueue()
        self._sender = threading.Thread(target=self._sender_loop, daemon=True)
        self._sender.start()

    def _ship(self, dst: int, tag: str, data: bytes) -> None:
        if self._send_error is not None and not self.fault_tolerant:
            raise BackendError(f"rank {self.rank}: send failed") from self._send_error
        if dst == self.rank:
            raise ValueError(f"rank {self.rank} sending to itself")
        if dst not in self._peers:
            raise ValueError(f"send to unknown rank {dst}")
        self._outq.put((dst, (self.rank, tag, data)))

    def _sender_loop(self) -> None:
        while True:
            item = self._outq.get()
            if item is _SENDER_STOP:
                return
            dst, wire = item
            try:
                self._peers[dst].send(wire)
            except BaseException as exc:
                if self.fault_tolerant:
                    # Peer crashed: drop and keep serving the survivors.
                    continue
                self._send_error = exc  # surfaced on the next send/close
                return

    def _receive(self, spec: RecvOp) -> Optional[Message]:
        deadline = None if spec.timeout is None else time.perf_counter() + spec.timeout
        while True:
            for i, m in enumerate(self._mailbox):
                if spec.matches(m):
                    return self._mailbox.pop(i)
            if not self._live_conns:
                if deadline is not None:
                    # Nothing can ever arrive; honour the timeout contract.
                    time.sleep(max(0.0, deadline - time.perf_counter()))
                    return None
                raise BackendError(
                    f"rank {self.rank}: receive {spec} can never be satisfied "
                    "(all peers exited, mailbox has no match)"
                )
            if deadline is None:
                ready = wait(self._live_conns)
            else:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return None
                ready = wait(self._live_conns, timeout=remaining)
                if not ready:
                    return None
            for conn in ready:
                try:
                    wire = conn.recv()
                except (EOFError, OSError):
                    # Peer exited; buffered data was drained first, so
                    # nothing is lost — stop watching this connection.
                    self._live_conns.remove(conn)
                    continue
                self._mailbox.append(self._message(*wire))

    def close(self) -> None:
        """Flush and stop the sender thread; surface any send failure."""
        self._outq.put(_SENDER_STOP)
        self._sender.join(timeout=30.0)
        if self._send_error is not None and not self.fault_tolerant:
            raise BackendError(f"rank {self.rank}: send failed") from self._send_error


def _child_main(
    proc: SimProcess,
    n_procs: int,
    peers: dict,
    inherited,
    result_conn,
    barrier,
    record_trace: bool,
    faults: Optional[RankFaults],
    cpus: Optional[frozenset[int]],
) -> None:
    """Entry point of one rank's OS process; ``cpus`` is its
    :func:`place_ranks` set."""
    # Close pipe ends belonging to other ranks.  Under 'fork' every child
    # inherits the whole mesh; if these stayed open, a peer's exit would
    # never surface as EOF in _receive (some process would always hold the
    # other end of its pipes).
    for conn in inherited:
        conn.close()
    try:
        if cpus is not None:
            # Before the sender thread starts: a thread inherits its
            # creator's mask, and this call sets only the calling thread's.
            os.sched_setaffinity(0, cpus)
        ctx = LocalContext(proc.rank, n_procs, peers, record_trace, faults)
        barrier.wait()
        ctx.reset_clock()
        drive(proc, ctx)
        elapsed = ctx.clock
        ctx.close()
        result_conn.send(("ok", ctx.report(proc, elapsed)))
    except InjectedCrash:
        # A crashed worker reports nothing and flushes nothing — it just
        # dies, exactly like a killed machine.
        os._exit(_CRASH_EXIT)
    except BaseException as exc:
        try:
            result_conn.send(("error", repr(exc), traceback.format_exc()))
        except BaseException:  # pragma: no cover - result pipe gone
            pass
    finally:
        result_conn.close()


class LocalProcessBackend(Backend):
    """Real parallel execution on the local host via ``multiprocessing``.

    Parameters
    ----------
    timeout:
        Wall-clock budget for the whole run, in seconds.  ``None`` (the
        default) falls back to the ``REPRO_LOCAL_TIMEOUT`` environment
        variable, or waits forever when that is unset too.  Set it to
        convert deadlocks into
        :class:`~repro.backend.base.BackendTimeoutError`.
    start_method:
        ``multiprocessing`` start method.  Defaults to ``fork`` where
        available (cheap — no re-import, no argument pickling), falling
        back to the platform default otherwise.

    A ``fault_plan`` passed to :meth:`run` arms fault injection (crashes /
    stragglers / message loss) and switches the supervisor to
    fault-tolerant expectations: worker deaths are recorded, not fatal —
    the self-healing master decides the run's fate.  Rank 0 failing
    always fails the run.

    Each worker rank runs pinned to one CPU of the parent's affinity mask,
    round-robin; the master keeps the whole mask (:func:`place_ranks`).  A
    run that starts beside another run of the same process pins nothing.
    """

    name = "local"

    def __init__(
        self,
        record_trace: bool = False,
        timeout: Optional[float] = None,
        start_method: Optional[str] = None,
    ):
        self.record_trace = record_trace
        if timeout is None:
            env = os.environ.get("REPRO_LOCAL_TIMEOUT")
            timeout = float(env) if env else None
        self.timeout = timeout
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else None
        self.start_method = start_method

    def _run(self, ordered: list[SimProcess], plan: Optional[FaultPlan]) -> BackendRun:
        require_contiguous_ranks(ordered)
        with _placement(len(ordered)) as placement:
            return self._run_placed(ordered, plan, placement)

    def _run_placed(
        self,
        ordered: list[SimProcess],
        plan: Optional[FaultPlan],
        placement: dict[int, Optional[frozenset[int]]],
    ) -> BackendRun:
        n = len(ordered)
        ranks = list(range(n))
        ft = plan is not None
        mpctx = mp.get_context(self.start_method)

        # Full mesh of duplex pipes + one result pipe per rank.
        ends: dict[int, dict[int, Connection]] = {r: {} for r in ranks}
        for i in ranks:
            for j in ranks:
                if i < j:
                    a, b = mpctx.Pipe(duplex=True)
                    ends[i][j] = a
                    ends[j][i] = b
        result_parent: dict[int, Connection] = {}
        result_child: dict[int, Connection] = {}
        for r in ranks:
            result_parent[r], result_child[r] = mpctx.Pipe(duplex=False)
        barrier = mpctx.Barrier(n)

        def _foreign_ends(rank: int) -> list[Connection]:
            """Every transport end that is not this rank's own."""
            return [c for r in ranks if r != rank for c in ends[r].values()] + [
                result_child[r] for r in ranks if r != rank
            ]

        # What every rank would otherwise import on its first send and in
        # its report: imported once here, forked ranks inherit it.
        import repro.obs.span  # noqa: F401
        import repro.parallel.messages  # noqa: F401
        import repro.parallel.wire  # noqa: F401

        children = [
            mpctx.Process(
                target=_child_main,
                args=(
                    p,
                    n,
                    ends[p.rank],
                    _foreign_ends(p.rank),
                    result_child[p.rank],
                    barrier,
                    self.record_trace,
                    plan.for_rank(p.rank) if ft else None,
                    placement[p.rank],
                ),
                name=f"repro-rank{p.rank}",
                daemon=True,
            )
            for p in ordered
        ]
        for c in children:
            c.start()
        # Parent keeps no transport ends open: close ours so EOFs propagate.
        for r in ranks:
            result_child[r].close()
            for conn in ends[r].values():
                conn.close()

        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        results: dict[int, tuple] = {}
        errors: dict[int, tuple[str, str]] = {}  # rank -> (repr, traceback)
        deaths: dict[int, str] = {}  # rank -> description (ft mode)
        fault_log: list[FaultRecord] = []
        pending = {result_parent[r]: r for r in ranks}
        child_by_rank = {p.rank: c for p, c in zip(ordered, children)}
        t0 = time.monotonic()
        failed = False

        def _fail_message(header: str) -> str:
            parts = [header]
            for rank in sorted(errors):
                err, tb = errors[rank]
                parts.append(f"--- rank {rank} failed: {err} ---\n{tb.rstrip()}")
            for rank in sorted(deaths):
                parts.append(f"--- rank {rank}: {deaths[rank]} ---")
            return "\n".join(parts)

        def _drain_errors(grace: float) -> None:
            """Harvest late error reports so the root cause is surfaced."""
            until = time.monotonic() + grace
            while pending and time.monotonic() < until:
                ready = wait(list(pending), timeout=max(0.0, until - time.monotonic()))
                if not ready:
                    return
                for conn in ready:
                    rank = pending.pop(conn)
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        continue
                    if msg[0] == "error":
                        errors[rank] = msg[1:]
                    else:
                        results[rank] = msg[1]

        def _raise_timeout() -> None:
            _drain_errors(grace=2.0)
            header = (
                f"local backend timed out after {self.timeout}s with "
                f"ranks {sorted(pending.values())} still running "
                "(transport or protocol deadlock?)"
            )
            raise BackendTimeoutError(_fail_message(header))

        def _record_death(rank: int) -> None:
            child = child_by_rank[rank]
            # A dying child closes its pipes before it can be reaped: wait
            # (bounded) for the exit status, or the same injected crash is
            # logged as "exitcode None" from run to run.
            child.join(timeout=5.0)
            code = child.exitcode
            if ft and rank != 0:
                kind = "injected crash" if code == _CRASH_EXIT else f"died (exitcode {code})"
                deaths[rank] = kind
                fault_log.append(
                    FaultRecord(kind="crash", rank=rank, time=time.monotonic() - t0, detail=kind)
                )
            else:
                errors.setdefault(
                    rank, (f"died without reporting a result (exitcode {code})", "")
                )

        def _take(conn, rank, block_ok: bool) -> None:
            nonlocal failed
            try:
                if not block_ok and not conn.poll(1.0):
                    del pending[conn]
                    _record_death(rank)
                    failed = bool(errors)
                    return
                msg = conn.recv()
            except (EOFError, OSError):
                del pending[conn]
                _record_death(rank)
                failed = bool(errors)
                return
            del pending[conn]
            if msg[0] == "error":
                if ft and rank != 0:
                    # Tolerated: the self-healing master routes around it.
                    deaths[rank] = f"failed: {msg[1]}"
                    fault_log.append(
                        FaultRecord(
                            kind="crash", rank=rank, time=time.monotonic() - t0, detail=msg[1]
                        )
                    )
                else:
                    errors[rank] = msg[1:]
                    failed = True
            else:
                results[rank] = msg[1]

        try:
            while pending and not failed:
                if ft and 0 in results:
                    # The master finished; give stragglers/zombies a short
                    # grace period to deliver their final states, then move on.
                    _drain_errors(grace=10.0)
                    break
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    _raise_timeout()
                # Watch result pipes plus the sentinels of still-pending
                # children, so a rank dying hard (no result message) is
                # noticed immediately rather than at the timeout.
                sentinel_ranks = {child_by_rank[r].sentinel: r for r in pending.values()}
                ready = wait(list(pending) + list(sentinel_ranks), timeout=remaining)
                if not ready:
                    _raise_timeout()
                conn_ready = [x for x in ready if x in pending]
                for conn in conn_ready:
                    _take(conn, pending[conn], block_ok=True)
                    if failed:
                        break
                if not conn_ready and not failed:
                    # Only sentinels fired: the child exited; its result may
                    # still be in flight, so give the pipe a short grace poll.
                    for s in ready:
                        rank = sentinel_ranks.get(s)
                        if rank is not None and rank in pending.values():
                            _take(result_parent[rank], rank, block_ok=False)
                            if failed:
                                break
            if failed:
                # Collect the other ranks' reports too: when one rank dies
                # its peers usually fail derivatively (EOF), and the root
                # cause should be in the message, not lost to a terminate.
                _drain_errors(grace=2.0)
        finally:
            if pending or failed:
                for c in children:
                    if c.is_alive():
                        c.terminate()
            for c in children:
                c.join(timeout=10.0)
                if c.is_alive():  # pragma: no cover - last resort
                    c.kill()
                    c.join()
            for conn in result_parent.values():
                conn.close()
        if failed or 0 not in results:
            raise BackendError(_fail_message("local backend run failed"))

        return BackendRun.from_reports((results[r] for r in sorted(results)), fault_log)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LocalProcessBackend(timeout={self.timeout}, start_method={self.start_method!r})"
