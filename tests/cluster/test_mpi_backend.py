"""Tests for the MPI transport (:class:`repro.backend.mpi.MPIContext`).

mpi4py is not installed in this environment, so these tests drive
generators against a *fake* communicator implementing the mpi4py subset
the transport uses — verifying the documented 1:1 mapping (and the
timed-receive / halt surfaces the fault-tolerance protocol needs)
without an MPI runtime.
"""

import time

import pytest

from repro.backend.base import drive
from repro.backend.mpi import HALT_TAG, MPIContext, MPIHalt, _TAG_IDS, mpi_available
from repro.cluster.message import marshal_payload
from repro.cluster.process import SimProcess
from repro.parallel.messages import Ping, Pong, Stop


class FakeStatus:
    def __init__(self):
        self.source = None
        self.tag = None

    def Get_source(self):
        return self.source

    def Get_tag(self):
        return self.tag


class FakeComm:
    """Single-process loopback comm implementing the mpi4py subset used.

    ``inbox`` entries are ``(shipped, src, tag_id)`` where ``shipped`` is
    what a peer's context would put on the wire (:meth:`arrive` builds
    one); ``recv``/``iprobe`` honour source/tag filters with mpi4py's
    -1 = ANY convention.
    """

    def __init__(self, rank=0, size=2):
        self._rank = rank
        self._size = size
        self.outbox = []
        self.inbox = []

    def Get_rank(self):
        return self._rank

    def Get_size(self):
        return self._size

    def send(self, payload, dest, tag):
        self.outbox.append((payload, dest, tag))

    def arrive(self, payload, src, tag_id):
        """Queue ``payload`` as it would arrive from rank ``src``."""
        self.inbox.append((marshal_payload(payload), src, tag_id))

    def _match(self, source, tag):
        for i, (_, src, t) in enumerate(self.inbox):
            if source not in (-1, src):
                continue
            if tag not in (-1, t):
                continue
            return i
        return None

    def iprobe(self, source=-1, tag=-1):
        return self._match(source, tag) is not None

    def recv(self, source=-1, tag=-1, status=None):
        i = self._match(source, tag)
        if i is None:
            raise AssertionError("blocking recv with empty matching inbox")
        payload, src, t = self.inbox.pop(i)
        if status is not None:
            status.source = src
            status.tag = t
        return payload


# mpi4py's Status/ANY_SOURCE live in the real module; fake them via a stub
# module injected before the adapter imports it.
@pytest.fixture
def fake_mpi(monkeypatch):
    import sys
    import types

    mod = types.ModuleType("mpi4py")
    mpi = types.SimpleNamespace(ANY_SOURCE=-1, ANY_TAG=-1, Status=FakeStatus)
    mod.MPI = mpi
    monkeypatch.setitem(sys.modules, "mpi4py", mod)
    monkeypatch.setitem(sys.modules, "mpi4py.MPI", mpi)
    return mod


class TestAvailability:
    def test_mpi_not_available_here(self):
        # offline environment: the adapter must degrade gracefully
        import sys

        if "mpi4py" not in sys.modules or not hasattr(sys.modules.get("mpi4py"), "MPI"):
            assert mpi_available() in (False, True)  # no crash either way


class TestDriveWithFakeComm:
    def test_send_recv_roundtrip(self, fake_mpi):
        comm = FakeComm(rank=0)
        comm.arrive(Pong(rank=1, token=1), 1, 4)  # tag 4 = "rules"

        class Proc(SimProcess):
            def __init__(self):
                super().__init__(0)
                self.got = None

            def run(self, ctx):
                yield ctx.send(1, Ping(token=1), tag="rules")
                msg = yield ctx.recv()
                self.got = (msg.src, msg.tag, msg.payload)

        p = Proc()
        drive(p, MPIContext(comm))
        assert comm.outbox == [(marshal_payload(Ping(token=1)), 1, 4)]
        assert p.got == (1, "rules", Pong(rank=1, token=1))

    def test_bcast_fans_out(self, fake_mpi):
        comm = FakeComm(rank=0, size=4)

        class Proc(SimProcess):
            def run(self, ctx):
                yield ctx.bcast(Stop(), tag="stop")

        drive(Proc(0), MPIContext(comm))
        assert [dest for _, dest, _ in comm.outbox] == [1, 2, 3]

    def test_compute_is_noop(self, fake_mpi):
        comm = FakeComm(rank=0)

        class Proc(SimProcess):
            def run(self, ctx):
                yield ctx.compute(10_000, label="search")

        drive(Proc(0), MPIContext(comm))  # no exception, nothing sent
        assert comm.outbox == []

    def test_context_rank_and_size(self, fake_mpi):
        ctx = MPIContext(FakeComm(rank=3, size=8))
        assert ctx.rank == 3
        assert ctx.n_procs == 8


class TestTimedReceives:
    """RecvOp.timeout on MPI: deadline-bounded iprobe polling."""

    def test_timeout_expiry_resumes_with_none(self, fake_mpi):
        ctx = MPIContext(FakeComm(rank=0))
        t0 = time.perf_counter()
        msg = ctx.execute(ctx.recv(timeout=0.05))
        assert msg is None
        assert time.perf_counter() - t0 >= 0.05

    def test_timed_recv_delivers_waiting_message(self, fake_mpi):
        comm = FakeComm(rank=0)
        comm.arrive(Ping(token=2), 2, _TAG_IDS["result"])
        ctx = MPIContext(comm)
        msg = ctx.execute(ctx.recv(timeout=5.0))
        assert (msg.src, msg.tag, msg.payload) == (2, "result", Ping(token=2))

    def test_timed_recv_honours_tag_filter(self, fake_mpi):
        comm = FakeComm(rank=0)
        comm.arrive(Pong(rank=1, token=0), 1, _TAG_IDS["pong"])
        ctx = MPIContext(comm)
        assert ctx.execute(ctx.recv(tag="rules", timeout=0.02)) is None
        # the non-matching message is still queued, not consumed
        assert len(comm.inbox) == 1

    def test_ft_tags_are_distinct(self, fake_mpi):
        # ping/pong/routing must not collapse onto the unknown-tag id,
        # or tag-filtered heartbeat receives would cross wires.
        comm = FakeComm(rank=0)
        comm.arrive(Pong(rank=1, token=0), 1, _TAG_IDS["pong"])
        ctx = MPIContext(comm)
        msg = ctx.execute(ctx.recv(tag="pong", timeout=1.0))
        assert msg.tag == "pong"


class TestHalt:
    def test_halt_interrupts_watched_recv(self, fake_mpi):
        comm = FakeComm(rank=1)
        comm.inbox.append((None, 0, HALT_TAG))
        ctx = MPIContext(comm, watch_halt=True)
        with pytest.raises(MPIHalt):
            ctx.execute(ctx.recv())

    def test_halt_preferred_over_data(self, fake_mpi):
        comm = FakeComm(rank=1)
        comm.arrive(Ping(token=0), 0, _TAG_IDS["evaluate"])
        comm.inbox.append((None, 0, HALT_TAG))
        ctx = MPIContext(comm, watch_halt=True)
        with pytest.raises(MPIHalt):
            ctx.execute(ctx.recv())

    def test_unwatched_context_ignores_halt_tag(self, fake_mpi):
        # a run without a fault plan never sees backend halts
        comm = FakeComm(rank=1)
        comm.arrive(Stop(), 0, _TAG_IDS["stop"])
        ctx = MPIContext(comm)
        msg = ctx.execute(ctx.recv())
        assert msg.tag == "stop"
