"""Pipe-transport regression tests for LocalProcessBackend.

Covers the failure modes a real message-passing substrate adds over the
simulation: OS pipe-buffer backpressure (ring deadlock), protocol
deadlock (timeout + cleanup), child crashes, and accounting parity.
"""

import multiprocessing as mp
import time

import pytest

from repro.backend import (
    BackendError,
    BackendTimeoutError,
    LocalProcessBackend,
    SimBackend,
)
from repro.cluster.process import SimProcess
from repro.logic.clause import Clause
from repro.logic.terms import atom
from repro.parallel.messages import MarkCovered, Ping, Pong, Stop


def bulk(i, fill):
    """Message ``i`` of a bulk stream: a rule whose wire size is ``fill``'s."""
    return MarkCovered(rule=Clause(atom("bulk", i, fill)))


class Pinger(SimProcess):
    def run(self, ctx):
        yield ctx.send(1, Ping(token=7), tag="t")
        msg = yield ctx.recv(src=1)
        self.got = msg.payload
        yield ctx.compute(10, label="work")


class Ponger(SimProcess):
    def run(self, ctx):
        msg = yield ctx.recv(src=0)
        yield ctx.send(0, Pong(rank=self.rank, token=msg.payload.token), tag="t")


class Hang(SimProcess):
    """Blocks forever on a receive nothing will satisfy."""

    def run(self, ctx):
        yield ctx.recv(tag="never")


class BulkExchanger(SimProcess):
    """Sends a large volume to its peer *before* receiving anything.

    Each payload is far bigger than the OS pipe buffer, and both ranks
    send first: with naive blocking ``Connection.send`` both block with
    full buffers and the run deadlocks.  The sender-thread transport must
    survive this.
    """

    N_MSGS = 24
    FILL = "x" * 262_144  # 256 KiB each, ~6 MiB per direction

    def run(self, ctx):
        peer = 1 - self.rank
        for i in range(self.N_MSGS):
            yield ctx.send(peer, bulk(i, self.FILL), tag="bulk")
        self.received = 0
        for i in range(self.N_MSGS):
            msg = yield ctx.recv(src=peer, tag="bulk")
            self.received += 1
            assert msg.payload == bulk(i, self.FILL)


class RingForwarder(SimProcess):
    """Rank r sends to (r+1) % n and receives from (r-1) % n, bulk-first."""

    N_MSGS = 8
    FILL = "y" * 262_144

    def __init__(self, rank, n):
        super().__init__(rank)
        self.n = n

    def run(self, ctx):
        nxt = (self.rank + 1) % self.n
        prv = (self.rank - 1) % self.n
        for i in range(self.N_MSGS):
            yield ctx.send(nxt, bulk(i, self.FILL), tag="ring")
        self.received = 0
        for _ in range(self.N_MSGS):
            yield ctx.recv(src=prv, tag="ring")
            self.received += 1


class Crasher(SimProcess):
    def run(self, ctx):
        yield ctx.compute(1)
        raise ValueError("boom in child")


class MidEpochRaiser(SimProcess):
    """A 'worker' that serves a couple of requests, then raises — the
    others keep waiting on it, mimicking a worker dying mid-epoch."""

    def run(self, ctx):
        for _ in range(2):
            msg = yield ctx.recv(tag="req")
            yield ctx.send(msg.src, Pong(rank=self.rank, token=msg.payload.token), tag="ack")
        raise ValueError("worker exploded mid-epoch")


class NeedyMaster(SimProcess):
    """Keeps asking rank 1 and waiting for answers (forever)."""

    def run(self, ctx):
        i = 0
        while True:
            yield ctx.send(1, Ping(token=i), tag="req")
            yield ctx.recv(tag="ack")
            i += 1


class BadDest(SimProcess):
    def run(self, ctx):
        yield ctx.send(99, Stop(), tag="t")


class Unregistered(SimProcess):
    def run(self, ctx):
        yield ctx.send(1, "hello", tag="t")


class Solo(SimProcess):
    def run(self, ctx):
        yield ctx.compute(5)
        self.done = True


def _no_repro_children():
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leftovers = [c for c in mp.active_children() if c.name.startswith("repro-rank")]
        if not leftovers:
            return True
        time.sleep(0.05)
    return False


class TestHappyPath:
    def test_ping_pong(self):
        run = LocalProcessBackend(timeout=30).run([Pinger(0), Ponger(1)])
        assert run.proc(0).got == Pong(rank=1, token=7)
        assert run.comm.messages == 2
        assert len(run.clocks) == 2
        assert run.seconds == max(run.clocks) > 0.0

    def test_comm_accounting_matches_sim(self):
        """Same messages, same wire sizes — Table 4 numbers carry over."""
        sim = SimBackend().run([Pinger(0), Ponger(1)])
        loc = LocalProcessBackend(timeout=30).run([Pinger(0), Ponger(1)])
        assert loc.comm.messages == sim.comm.messages
        assert loc.comm.bytes_total == sim.comm.bytes_total
        assert loc.comm.bytes_by_tag == sim.comm.bytes_by_tag
        assert loc.comm.bytes_by_link == sim.comm.bytes_by_link

    def test_record_trace(self):
        run = LocalProcessBackend(timeout=30, record_trace=True).run([Pinger(0), Ponger(1)])
        assert any(s.name == "work" and s.rank == 0 for s in run.trace)


class TestBackpressure:
    def test_bidirectional_bulk_does_not_deadlock(self):
        """Regression: sends must not block the generator thread even when
        both directions exceed the OS pipe buffer."""
        run = LocalProcessBackend(timeout=120).run([BulkExchanger(0), BulkExchanger(1)])
        assert run.proc(0).received == BulkExchanger.N_MSGS
        assert run.proc(1).received == BulkExchanger.N_MSGS
        assert run.comm.messages == 2 * BulkExchanger.N_MSGS

    def test_ring_bulk_does_not_deadlock(self):
        n = 4
        run = LocalProcessBackend(timeout=120).run([RingForwarder(r, n) for r in range(n)])
        assert all(run.proc(r).received == RingForwarder.N_MSGS for r in range(n))


class TestFailureModes:
    def test_deadlock_times_out_and_cleans_up(self):
        """Regression: an unsatisfiable receive must end in a timeout error,
        not a hung parent, and must leave no live children behind."""
        with pytest.raises(BackendTimeoutError, match="timed out"):
            LocalProcessBackend(timeout=1.5).run([Hang(0), Hang(1)])
        assert _no_repro_children(), "timed-out children were not terminated"

    def test_child_exception_propagates(self):
        with pytest.raises(BackendError, match="boom in child"):
            LocalProcessBackend(timeout=30).run([Crasher(0), Hang(1)])
        assert _no_repro_children()

    def test_mid_epoch_worker_traceback_surfaced(self):
        """Regression: when a worker raises mid-epoch while its peers
        block on it, the error must carry the *failing worker's* repr and
        traceback — not just a timeout or a derivative peer error."""
        with pytest.raises(BackendError) as excinfo:
            LocalProcessBackend(timeout=20).run(
                [NeedyMaster(0), MidEpochRaiser(1), Hang(2)]
            )
        text = str(excinfo.value)
        assert "worker exploded mid-epoch" in text
        assert "Traceback" in text
        assert "rank 1" in text
        assert _no_repro_children()

    def test_empty_plan_does_not_tolerate_a_worker_error(self):
        """Regression: an *empty* plan is no plan.  The supervisor used to
        treat any non-None plan as armed, record the raising worker as a
        tolerated death, and leave the master waiting for the watchdog."""
        from repro.fault.plan import FaultPlan

        class WaitsOnOne(SimProcess):
            def run(self, ctx):
                yield ctx.recv(src=1)

        t0 = time.monotonic()
        with pytest.raises(BackendError, match="boom in child") as excinfo:
            LocalProcessBackend(timeout=20).run(
                [WaitsOnOne(0), Crasher(1), Hang(2)], fault_plan=FaultPlan()
            )
        assert not isinstance(excinfo.value, BackendTimeoutError)
        assert time.monotonic() - t0 < 15, "ended at the watchdog, not at the error"
        assert _no_repro_children()

    def test_timeout_includes_reported_tracebacks(self):
        """Regression: the deadlock watchdog must surface any traceback a
        child managed to report before the timeout fired, instead of only
        saying 'timed out'."""

        class LateRaiser(SimProcess):
            def run(self, ctx):
                yield ctx.compute(1)
                raise ValueError("slow doom")

        class Stubborn(SimProcess):
            def run(self, ctx):
                yield ctx.recv(tag="never")

        # Rank 1 raises promptly; rank 0 hangs until the watchdog fires.
        # (The parent fails fast on the error here; the point is that the
        # message always names the root cause with its traceback.)
        with pytest.raises(BackendError) as excinfo:
            LocalProcessBackend(timeout=3.0).run([Stubborn(0), LateRaiser(1)])
        text = str(excinfo.value)
        assert "slow doom" in text
        assert "Traceback" in text
        assert _no_repro_children()

    def test_send_to_unknown_rank(self):
        with pytest.raises(BackendError, match="unknown rank"):
            LocalProcessBackend(timeout=30).run([BadDest(0), Hang(1)])
        assert _no_repro_children()

    def test_unregistered_payload_refused_at_send(self):
        with pytest.raises(BackendError) as excinfo:
            LocalProcessBackend(timeout=30).run([Unregistered(0), Hang(1)])
        text = str(excinfo.value)
        assert "WireError: no wire codec for payload type builtins.str" in text
        assert not isinstance(excinfo.value, BackendTimeoutError)
        assert _no_repro_children()

    def test_recv_from_exited_peer_fails_fast(self):
        """Regression: a receive that can never be satisfied because every
        peer already exited must raise promptly (via EOF detection), not
        hang until the watchdog timeout."""
        class_exit = Solo(0)  # sends nothing, exits immediately
        t0 = time.monotonic()
        with pytest.raises(BackendError, match="never be satisfied"):
            LocalProcessBackend(timeout=60).run([class_exit, Hang(1)])
        assert time.monotonic() - t0 < 30, "EOF fail-fast did not trigger"
        assert _no_repro_children()

    def test_timeout_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCAL_TIMEOUT", "1.5")
        bk = LocalProcessBackend()
        assert bk.timeout == 1.5
        with pytest.raises(BackendTimeoutError):
            bk.run([Hang(0), Hang(1)])
        assert _no_repro_children()

    def test_non_contiguous_ranks_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            LocalProcessBackend(timeout=30).run([Pinger(0), Ponger(2)])

    def test_single_rank(self):
        run = LocalProcessBackend(timeout=30).run([Solo(0)])
        assert run.proc(0).done is True
        assert run.comm.messages == 0
