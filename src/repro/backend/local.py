"""LocalProcessBackend: run the generators on real OS processes.

Each rank becomes one ``multiprocessing`` process; ranks are connected by
a full mesh of duplex pipes.  The same master/worker generators that run
in virtual time on :class:`~repro.backend.sim.SimBackend` run here
unmodified — ``compute`` syscalls become (traced) no-ops because real
CPUs charge themselves, and ``seconds`` in the returned
:class:`~repro.backend.base.BackendRun` is genuine wall-clock time.

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
* **Accounting** uses the same payload marshalling
  (:func:`~repro.cluster.message.marshal_payload`) and
  :class:`~repro.cluster.scheduler.CommStats` as the simulation, so
  communication volumes are directly comparable across substrates.
  Payloads travel as their marshalled bytes and are unmarshalled on
  receipt — the accounted bytes are the shipped bytes.
* **Failures.**  Child exceptions are reported with their full traceback
  over a result pipe and re-raised in the parent — aggregated across
  ranks, so the root cause is visible even when peers fail derivatively
  (EOF storms) or the run has to be timed out.  The wall-clock
  ``timeout`` remains the last-resort watchdog for true deadlocks; on
  expiry any tracebacks already reported are included in the error.
* **Fault injection** (:class:`~repro.fault.plan.FaultPlan`): injected
  worker crashes hard-kill the child (``os._exit``) when it is about to
  process its *n*-th matching message — the same logical trigger the
  simulator uses, so both substrates inject identical faults.
  Stragglers sleep real time after compute intervals; message loss drops
  the *n*-th payload on a link before it reaches the pipe.  Under an
  active plan the parent tolerates worker deaths (the self-healing
  master is expected to recover); only rank 0's failure fails the run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
import time
import traceback
from multiprocessing.connection import Connection, wait
from typing import Optional, Sequence

from repro.backend.base import Backend, BackendError, BackendRun, BackendTimeoutError, drive
from repro.cluster.message import Message, marshal_payload, unmarshal_payload
from repro.cluster.process import (
    BcastOp,
    ComputeInterval,
    ComputeOp,
    RecvOp,
    SendOp,
    SimProcess,
)
from repro.cluster.scheduler import CommStats
from repro.fault.plan import (
    MAX_STRAGGLE_SLEEP as _MAX_STRAGGLE_SLEEP,
    FaultPlan,
    FaultRecord,
    Straggler,
    WorkerCrash,
)

__all__ = ["LocalProcessBackend", "LocalContext"]

_SENDER_STOP = object()

#: exit code of an injected-crash child (distinguishes it from real bugs).
_CRASH_EXIT = 66

# (the straggler sleep cap _MAX_STRAGGLE_SLEEP is shared with the MPI
# backend via repro.fault.plan.MAX_STRAGGLE_SLEEP)


class _InjectedCrash(BaseException):
    """Raised inside a child to simulate a hard worker crash."""


class LocalContext:
    """Immediate-mode execution context for one rank (runs in the child).

    Satisfies :class:`~repro.backend.base.ExecutionContext`; its
    ``execute`` method performs each yielded syscall for real.
    """

    def __init__(
        self,
        rank: int,
        n_procs: int,
        peers: dict[int, Connection],
        record_trace: bool = False,
        fault_tolerant: bool = False,
        crash: Optional[WorkerCrash] = None,
        straggler: Optional[Straggler] = None,
        losses: Optional[dict] = None,
    ):
        self.rank = rank
        self._n_procs = n_procs
        self._peers = peers
        self._live_conns = list(peers.values())
        self.record_trace = record_trace
        #: under an active fault plan, undeliverable sends (peer crashed)
        #: are dropped instead of poisoning this rank.
        self.fault_tolerant = fault_tolerant
        self._crash = crash
        self._crash_seen = 0
        self._straggler = straggler
        self._losses = losses or {}
        self._sent_count: dict[int, int] = {}
        #: injected events observed by this rank (drops), shipped home
        #: with the results so both substrates report the same log.
        self.fault_log: list[FaultRecord] = []
        self.stats = CommStats()
        self.trace: list[ComputeInterval] = []
        self._mailbox: list[Message] = []
        self._seq = 0
        self._t0 = time.perf_counter()
        self._last_mark = 0.0
        self._send_error: Optional[BaseException] = None
        self._outq: "queue.SimpleQueue" = queue.SimpleQueue()
        self._sender = threading.Thread(target=self._sender_loop, daemon=True)
        self._sender.start()

    # -- syscall constructors (same surface as ProcContext) ---------------------
    def send(self, dst: int, payload: object, tag: str) -> SendOp:
        return SendOp(dst, payload, tag)

    def bcast(self, payload: object, tag: str, dsts=None) -> BcastOp:
        if dsts is None:
            dsts = [r for r in range(self.n_procs) if r != self.rank]
        return BcastOp(tuple(dsts), payload, tag)

    def recv(
        self, src: Optional[int] = None, tag: Optional[str] = None, timeout: Optional[float] = None
    ) -> RecvOp:
        return RecvOp(src, tag, timeout)

    def compute(self, ops: int, label: str = "compute") -> ComputeOp:
        return ComputeOp(int(ops), label)

    # -- introspection -----------------------------------------------------------
    @property
    def clock(self) -> float:
        """Wall-clock seconds since this rank started."""
        return time.perf_counter() - self._t0

    @property
    def n_procs(self) -> int:
        return self._n_procs

    def reset_clock(self) -> None:
        self._t0 = time.perf_counter()
        self._last_mark = 0.0

    # -- execution ---------------------------------------------------------------
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
            return self._recv(op)
        if isinstance(op, ComputeOp):
            # Real CPU time has already passed between yields; just trace it.
            now = self.clock
            if self._straggler is not None and now >= self._straggler.after_time:
                extra = min((now - self._last_mark) * (self._straggler.factor - 1.0), _MAX_STRAGGLE_SLEEP)
                if extra > 0:
                    time.sleep(extra)
                    now = self.clock
            if self.record_trace:
                self.trace.append(ComputeInterval(self.rank, self._last_mark, now, op.label))
            self._last_mark = now
            return None
        raise TypeError(f"rank {self.rank} yielded non-syscall {op!r}")

    def _post(self, dst: int, payload: object, tag: str) -> None:
        if self._send_error is not None and not self.fault_tolerant:
            raise BackendError(f"rank {self.rank}: send failed") from self._send_error
        if dst == self.rank:
            raise ValueError(f"rank {self.rank} sending to itself")
        if dst not in self._peers:
            raise ValueError(f"send to unknown rank {dst}")
        # The marshalled bytes are both what is accounted and what is
        # shipped, so CommStats match the sim backend exactly.
        data, encoded = marshal_payload(payload)
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
        # Injected message loss: the sender is charged, the payload dies.
        n = self._sent_count.get(dst, 0) + 1
        self._sent_count[dst] = n
        if n in self._losses.get(dst, ()):
            self.fault_log.append(
                FaultRecord(kind="drop", rank=self.rank, time=now, detail=f"->{dst} #{n} tag={tag}")
            )
            return
        self._outq.put((dst, (self.rank, tag, data, encoded)))

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

    def _recv(self, spec: RecvOp) -> Optional[Message]:
        deadline = None if spec.timeout is None else time.perf_counter() + spec.timeout
        while True:
            for i, m in enumerate(self._mailbox):
                if spec.matches(m):
                    self._maybe_crash(m)
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
                    src, tag, data, encoded = conn.recv()
                except (EOFError, OSError):
                    # Peer exited; buffered data was drained first, so
                    # nothing is lost — stop watching this connection.
                    self._live_conns.remove(conn)
                    continue
                payload = unmarshal_payload(data, encoded)
                self._seq += 1
                now = self.clock
                self._mailbox.append(
                    Message(
                        src=src,
                        dst=self.rank,
                        tag=tag,
                        payload=payload,
                        nbytes=len(data),
                        send_time=now,
                        arrival_time=now,
                        seq=self._seq,
                    )
                )

    def _maybe_crash(self, msg: Message) -> None:
        """Injected crash: die when about to process the n-th matching
        message — the same deterministic trigger the simulator counts."""
        crash = self._crash
        if crash is None or crash.on_recv is None:
            return
        if crash.tag is not None and crash.tag != msg.tag:
            return
        self._crash_seen += 1
        if self._crash_seen >= crash.on_recv:
            raise _InjectedCrash()

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
    fault_tolerant: bool = False,
    crash: Optional[WorkerCrash] = None,
    straggler: Optional[Straggler] = None,
    losses: Optional[dict] = None,
) -> None:
    """Entry point of one rank's OS process."""
    # Close pipe ends belonging to other ranks.  Under 'fork' every child
    # inherits the whole mesh; if these stayed open, a peer's exit would
    # never surface as EOF in _recv (some process would always hold the
    # other end of its pipes).
    for conn in inherited:
        conn.close()
    try:
        ctx = LocalContext(
            proc.rank,
            n_procs,
            peers,
            record_trace=record_trace,
            fault_tolerant=fault_tolerant,
            crash=crash,
            straggler=straggler,
            losses=losses,
        )
        barrier.wait()
        ctx.reset_clock()
        drive(proc, ctx)
        elapsed = ctx.clock
        ctx.close()
        # The trace travels as a wire-codec SpanBatch (code 28), the same
        # encoding `repro trace --trace-out` writes — one format for spans
        # whether they cross a pipe, an MPI gather, or land in a file.
        from repro.obs.span import encode_batch

        span_bytes = encode_batch(proc.rank, ctx.trace)
        result_conn.send(("ok", proc.rank, proc, ctx.stats, elapsed, span_bytes, ctx.fault_log))
    except _InjectedCrash:
        # A crashed worker reports nothing and flushes nothing — it just
        # dies, exactly like a killed machine.
        os._exit(_CRASH_EXIT)
    except BaseException as exc:
        try:
            result_conn.send(("error", proc.rank, repr(exc), traceback.format_exc()))
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
    fault_plan:
        Arm fault injection (crashes / stragglers / message loss) and
        switch the supervisor to fault-tolerant expectations: worker
        deaths are recorded, not fatal — the self-healing master decides
        the run's fate.  Rank 0 failing always fails the run.
    """

    name = "local"
    supports_fault_injection = True

    def __init__(
        self,
        record_trace: bool = False,
        timeout: Optional[float] = None,
        start_method: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.record_trace = record_trace
        if timeout is None:
            env = os.environ.get("REPRO_LOCAL_TIMEOUT")
            timeout = float(env) if env else None
        self.timeout = timeout
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else None
        self.start_method = start_method
        self.fault_plan = fault_plan

    def run(self, procs: Sequence[SimProcess]) -> BackendRun:
        ordered = sorted(procs, key=lambda p: p.rank)
        n = len(ordered)
        ranks = [p.rank for p in ordered]
        if ranks != list(range(n)):
            raise ValueError(f"ranks must be contiguous 0..{n - 1}, got {ranks}")
        plan = self.fault_plan
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
                    ft,
                    plan.crash_for(p.rank) if ft else None,
                    plan.straggler_for(p.rank) if ft else None,
                    plan.losses_for(p.rank) if ft else None,
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
                        errors[rank] = (msg[2], msg[3])
                    else:
                        results[rank] = msg

        def _raise_timeout() -> None:
            _drain_errors(grace=2.0)
            header = (
                f"local backend timed out after {self.timeout}s with "
                f"ranks {sorted(pending.values())} still running "
                "(transport or protocol deadlock?)"
            )
            raise BackendTimeoutError(_fail_message(header))

        def _record_death(rank: int) -> None:
            code = child_by_rank[rank].exitcode
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
                    deaths[rank] = f"failed: {msg[2]}"
                    fault_log.append(
                        FaultRecord(
                            kind="crash", rank=rank, time=time.monotonic() - t0, detail=msg[2]
                        )
                    )
                else:
                    errors[rank] = (msg[2], msg[3])
                    failed = True
            else:
                results[rank] = msg

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

        comm = CommStats()
        clocks: list[float] = []
        trace: list[ComputeInterval] = []
        final_procs: list[SimProcess] = []
        from repro.obs.span import decode_batch

        for r in sorted(results):
            _, _, proc, stats, elapsed, span_bytes, rfaults = results[r]
            final_procs.append(proc)
            clocks.append(elapsed)
            trace.extend(decode_batch(span_bytes))
            fault_log.extend(rfaults)
            comm.merge(stats)
        trace.sort(key=lambda iv: (iv.start, iv.rank))
        fault_log.sort(key=lambda f: f.time)
        return BackendRun(
            seconds=max(clocks) if clocks else 0.0,
            comm=comm,
            clocks=clocks,
            trace=trace,
            procs=final_procs,
            fault_log=fault_log,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LocalProcessBackend(timeout={self.timeout}, start_method={self.start_method!r})"
