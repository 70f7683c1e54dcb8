"""Fault injection on the wall-clock substrates (no MPI runtime needed).

The real-cluster legs live in tests/fault/test_ft_matrix.py and the CI
mpi-smoke job.  Here the context-level cases — nth-drop, crash on the
n-th matching receive, straggler sleep, timed receives, byte accounting —
are one body run against both transports of the shared
``WallClockContext`` (``MPIContext`` on a fake communicator: the classes
below; ``LocalContext`` on in-process pipes: their ``...OnPipes``
subclasses), and fake communicators drive ``MPIBackend.run`` — retire in
place, the halt/gather shutdown — so the logic is covered on every host.
"""

import multiprocessing as mp
import threading
import time

import pytest

from repro.backend import make_backend
from repro.backend.base import Backend, InjectedCrash
from repro.backend.local import LocalContext
from repro.backend.mpi import _ID_TAGS, _TAG_IDS, HALT_TAG, MPIBackend, MPIContext
from repro.cluster.message import marshal_payload, payload_nbytes, unmarshal_payload
from repro.cluster.process import SimProcess
from repro.fault.plan import MAX_STRAGGLE_SLEEP, FaultPlan, MessageLoss, Straggler, WorkerCrash
from repro.logic.parser import parse_clause
from repro.parallel import wire
from repro.parallel.messages import (
    EvaluateRequest,
    MarkCovered,
    Ping,
    PipelineRules,
    StartPipeline,
    Stop,
)


class FakeStatus:
    def __init__(self):
        self.source = None
        self.tag = None

    def Get_source(self):
        return self.source

    def Get_tag(self):
        return self.tag


class FakeComm:
    """Loopback comm with the collective subset MPIBackend.run needs."""

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

    # single-rank collectives: everyone is root
    def gather(self, value, root=0):
        assert self._size == 1
        return [value]

    def bcast(self, value, root=0):
        return value


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


class MPIRig:
    """One rank's ``MPIContext`` on a :class:`FakeComm`."""

    def __init__(self, rank, size, faults):
        self.comm = FakeComm(rank, size)
        self.ctx = MPIContext(self.comm, faults=faults)

    def arrive(self, payload, src, tag):
        """Queue ``payload`` as rank ``src``'s context would have shipped it."""
        self.comm.inbox.append((marshal_payload(payload), src, _TAG_IDS[tag]))

    def shipped(self):
        """What left this rank: ``(dst, tag, payload, bytes on the wire)``."""
        return [
            (dst, _ID_TAGS[t], unmarshal_payload(data), len(data))
            for data, dst, t in self.comm.outbox
        ]

    def close(self):
        pass


class PipeRig:
    """One rank's ``LocalContext``; the test holds the far end of each pipe."""

    def __init__(self, rank, size, faults):
        near, self.far = {}, {}
        for r in range(size):
            if r != rank:
                near[r], self.far[r] = mp.Pipe(duplex=True)
        self.ctx = LocalContext(rank, size, near, faults=faults)

    def arrive(self, payload, src, tag):
        self.far[src].send((src, tag, marshal_payload(payload)))

    def shipped(self):
        self.close()  # flushes the sender thread
        out = []
        for dst, conn in sorted(self.far.items()):
            while conn.poll():
                _, tag, data = conn.recv()
                out.append((dst, tag, unmarshal_payload(data), len(data)))
        return out

    def close(self):
        if self.ctx._sender.is_alive():
            self.ctx.close()


@pytest.fixture
def rig(request, fake_mpi):
    """``rig(rank, size, plan)``: the requesting class's transport, with
    that rank's share of ``plan`` armed."""
    made = []

    def make(rank=0, size=2, plan=None):
        faults = plan.for_rank(rank) if plan is not None else None
        made.append(request.cls.transport(rank, size, faults))
        return made[-1]

    yield make
    for r in made:
        r.close()


class TestSendAdapterLoss:
    transport = MPIRig

    def test_nth_send_dropped_sender_charged(self, rig):
        r = rig(rank=0, size=3, plan=FaultPlan(losses=(MessageLoss(src=0, dst=1, nth=2),)))
        ctx = r.ctx
        for token in (1, 2, 3):
            ctx.execute(ctx.send(1, Ping(token=token), tag="rules"))
        # the 2nd message to rank 1 died at the adapter...
        assert [p for _, _, p, _ in r.shipped()] == [Ping(token=1), Ping(token=3)]
        # ...but the sender was charged for all three
        assert ctx.stats.messages == 3
        assert [(f.kind, f.detail) for f in ctx.fault_log] == [("drop", "->1 #2 tag=rules")]

    def test_loss_counts_per_link(self, rig):
        r = rig(rank=0, size=3, plan=FaultPlan(losses=(MessageLoss(src=0, dst=2, nth=1),)))
        ctx = r.ctx
        ctx.execute(ctx.send(1, Ping(token=1), tag="rules"))  # other link: untouched
        ctx.execute(ctx.send(2, Ping(token=2), tag="rules"))  # link 0->2 #1: dropped
        ctx.execute(ctx.send(2, Ping(token=3), tag="rules"))
        assert [(p.token, d) for d, _, p, _ in r.shipped()] == [(1, 1), (3, 2)]

    def test_bcast_drops_only_the_lossy_destination(self, rig):
        r = rig(rank=0, size=4, plan=FaultPlan(losses=(MessageLoss(src=0, dst=2, nth=1),)))
        r.ctx.execute(r.ctx.bcast(Stop(), tag="stop"))
        assert [d for d, _, _, _ in r.shipped()] == [1, 3]
        assert r.ctx.stats.messages == 3


class TestRetireInPlace:
    transport = MPIRig

    def test_crash_on_nth_matching_recv(self, rig):
        crash = WorkerCrash(rank=1, on_recv=2, tag="start_pipeline")
        r = rig(rank=1, plan=FaultPlan(crashes=(crash,)))
        r.arrive(StartPipeline(width=1), 0, "start_pipeline")
        r.arrive(Ping(token=0), 0, "ping")
        r.arrive(StartPipeline(width=2), 0, "start_pipeline")
        ctx = r.ctx
        assert ctx.execute(ctx.recv()).payload == StartPipeline(width=1)
        assert ctx.execute(ctx.recv()).payload == Ping(token=0)  # wrong tag: not counted
        with pytest.raises(InjectedCrash):
            ctx.execute(ctx.recv())  # 2nd start_pipeline: about to process -> die

    def test_at_time_crashes_are_sim_only(self, rig):
        r = rig(rank=1, plan=FaultPlan(crashes=(WorkerCrash(rank=1, at_time=0.0),)))
        r.arrive(PipelineRules(origin=1, rules=()), 0, "rules")
        assert r.ctx.execute(r.ctx.recv()).payload == PipelineRules(origin=1, rules=())  # no trigger


class TestStraggler:
    transport = MPIRig

    def test_compute_sleeps_extra(self, rig):
        ctx = rig(rank=1, plan=FaultPlan(stragglers=(Straggler(rank=1, factor=2.0),))).ctx
        time.sleep(0.05)
        t0 = time.perf_counter()
        ctx.execute(ctx.compute(1000))
        # factor 2.0 doubles elapsed compute: ~0.05s extra sleep
        assert time.perf_counter() - t0 >= 0.03

    def test_sleep_is_capped(self, rig, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        ctx = rig(rank=1, plan=FaultPlan(stragglers=(Straggler(rank=1, factor=1e9),))).ctx
        ctx.execute(ctx.compute(1000))
        assert slept == [MAX_STRAGGLE_SLEEP]


class TestTimedRecvPassThrough:
    transport = MPIRig

    def test_timeout_threads_through_accounting_context(self, rig):
        ctx = rig(rank=0).ctx
        op = ctx.recv(src=None, tag=None, timeout=0.01)
        assert op.timeout == 0.01
        assert ctx.execute(op) is None  # nothing arrives -> expiry -> None


class TestAccounting:
    """The accounted bytes are the shipped bytes, marshalled once."""

    transport = MPIRig

    def test_one_encode_per_send_none_per_receive(self, rig, monkeypatch):
        encodes = []
        real = wire.encode_always
        monkeypatch.setattr(wire, "encode_always", lambda p: encodes.append(p) or real(p))
        r = rig(rank=0, size=3)
        ctx = r.ctx
        covered = MarkCovered(rule=parse_clause("p(X) :- q(X)."))
        request = EvaluateRequest(rules=(parse_clause("p(X) :- q(X), r(X)."),))
        r.arrive(Ping(token=7), 1, "ping")
        r.arrive(covered, 2, "rules")
        del encodes[:]  # (the rig marshalled those on the peers' behalf)
        ctx.execute(ctx.send(1, Ping(token=8), tag="ping"))
        ctx.execute(ctx.bcast(request, tag="rules"))
        got = [ctx.execute(ctx.recv(src=1)), ctx.execute(ctx.recv(src=2))]
        assert len(encodes) == 3
        assert [m.payload for m in got] == [Ping(token=7), covered]
        assert [m.nbytes for m in got] == [payload_nbytes(m.payload) for m in got]
        shipped = r.shipped()
        assert [p for _, _, p, _ in shipped] == [Ping(token=8), request, request]
        assert sum(n for _, _, _, n in shipped) == ctx.stats.bytes_total

    def test_unregistered_payload_refused_at_send(self, rig):
        r = rig(rank=0, size=2)
        ctx = r.ctx
        with pytest.raises(wire.WireError, match="no wire codec for payload type builtins.tuple"):
            ctx.execute(ctx.send(1, ("pickled", 3), tag="rules"))
        assert ctx.stats.messages == 0
        assert r.shipped() == []


class TestSendAdapterLossOnPipes(TestSendAdapterLoss):
    transport = PipeRig


class TestRetireInPlaceOnPipes(TestRetireInPlace):
    transport = PipeRig


class TestStragglerOnPipes(TestStraggler):
    transport = PipeRig


class TestTimedRecvPassThroughOnPipes(TestTimedRecvPassThrough):
    transport = PipeRig


class TestAccountingOnPipes(TestAccounting):
    transport = PipeRig


class TestBackendRunFake:
    def _proc(self):
        class Proc(SimProcess):
            def __init__(self):
                super().__init__(0)
                self.done = False

            def run(self, ctx):
                yield ctx.compute(10)
                self.done = True

        return Proc()

    def test_single_rank_run_assembles_backendrun(self, fake_mpi):
        bk = MPIBackend(comm=FakeComm(rank=0, size=1))
        run = bk.run([self._proc()])
        assert len(run.procs) == 1 and run.procs[0].done
        assert run.fault_log == []

    def test_single_rank_run_with_plan_uses_halt_barrier(self, fake_mpi):
        plan = FaultPlan(supervise=True, timeout=0.5)
        bk = MPIBackend(comm=FakeComm(rank=0, size=1))
        run = bk.run([self._proc()], fault_plan=plan)
        assert len(run.procs) == 1 and run.procs[0].done

    def test_size_mismatch_is_an_error(self, fake_mpi):
        bk = MPIBackend(comm=FakeComm(rank=0, size=1))
        second = self._proc()
        second.rank = 1
        with pytest.raises(ValueError, match="matching -n"):
            bk.run([self._proc(), second])


class TestCapability:
    """The plan is an argument of ``run`` on every backend — no capability
    flag, nothing armed on the instance."""

    class Recording(Backend):
        name = "recording"

        def _run(self, procs, plan):
            self.seen = ([p.rank for p in procs], plan)

    def test_make_backend_mpi_accepts_a_plan(self, fake_mpi):
        fake_mpi.MPI.COMM_WORLD = FakeComm(rank=0, size=1)
        bk = make_backend("mpi")
        assert isinstance(bk, MPIBackend)
        proc = TestBackendRunFake()._proc()
        plan = FaultPlan(crashes=(WorkerCrash(rank=1, on_recv=1),), timeout=1.0)
        assert bk.run([proc], fault_plan=plan).procs == [proc]

    def test_scope_arms_and_restores_mpi(self, fake_mpi):
        """A plan lasts one run: rank 0 sends halts only in the run that
        was given one."""
        comm = FakeComm(rank=0, size=2)
        comm.gather = lambda value, root=0: [value, value]
        bk = MPIBackend(comm=comm)
        proc = TestBackendRunFake()._proc
        bk.run([proc(), SimProcess(1)], fault_plan=FaultPlan(supervise=True))
        assert [(dst, tag) for _, dst, tag in comm.outbox] == [(1, HALT_TAG)]
        del comm.outbox[:]
        bk.run([proc(), SimProcess(1)])
        assert comm.outbox == []

    def test_unsupporting_backend_gets_friendly_error(self):
        """Any ``Backend`` subclass gets the plan through ``run`` — ranks
        sorted, an empty plan normalised to none."""
        bk = self.Recording()
        bk.run([SimProcess(1), SimProcess(0)], fault_plan=FaultPlan())
        assert bk.seen == ([0, 1], None)
        plan = FaultPlan(supervise=True)
        bk.run([SimProcess(0)], fault_plan=plan)
        assert bk.seen == ([0], plan)


class ClusterComm:
    """Multi-rank in-process fake: one mpi4py-shaped view per rank/thread.

    Point-to-point messaging through shared per-rank queues plus the
    single gather→bcast rendezvous ``MPIBackend.run`` performs, which is
    enough to run the *complete* SPMD protocol — timed receives, retire
    drain loops, the halt barrier and root assembly — without an MPI
    runtime (each rank runs on its own thread instead of its own node).
    """

    def __init__(self, size):
        self.size = size
        self.queues = [[] for _ in range(size)]
        self.cond = threading.Condition()
        self.gathered = {}
        self.bcast_box = []
        #: protocol messages put on the communicator, and their bytes
        self.messages = 0
        self.nbytes = 0

    def view(self, rank):
        return _RankView(self, rank)


class _RankView:
    def __init__(self, cluster, rank):
        self._c = cluster
        self._rank = rank

    def Get_rank(self):
        return self._rank

    def Get_size(self):
        return self._c.size

    def send(self, payload, dest, tag):
        c = self._c
        with c.cond:
            if tag != HALT_TAG:
                c.messages += 1
                c.nbytes += len(payload)
            c.queues[dest].append((payload, self._rank, tag))
            c.cond.notify_all()

    def _match(self, source, tag):
        for i, (_, src, t) in enumerate(self._c.queues[self._rank]):
            if source not in (-1, src):
                continue
            if tag not in (-1, t):
                continue
            return i
        return None

    def iprobe(self, source=-1, tag=-1):
        with self._c.cond:
            return self._match(source, tag) is not None

    def recv(self, source=-1, tag=-1, status=None):
        c = self._c
        with c.cond:
            while True:
                i = self._match(source, tag)
                if i is not None:
                    payload, src, t = c.queues[self._rank].pop(i)
                    if status is not None:
                        status.source = src
                        status.tag = t
                    return payload
                c.cond.wait(0.05)

    # MPIBackend.run performs exactly one gather then one bcast per run,
    # so single-use rendezvous state is sufficient.
    def gather(self, value, root=0):
        c = self._c
        with c.cond:
            c.gathered[self._rank] = value
            c.cond.notify_all()
            while len(c.gathered) < c.size:
                c.cond.wait(0.05)
            if self._rank == root:
                return [c.gathered[r] for r in range(c.size)]
            return None

    def bcast(self, value, root=0):
        c = self._c
        with c.cond:
            if self._rank == root:
                c.bcast_box.append(value)
                c.cond.notify_all()
                return value
            while not c.bcast_box:
                c.cond.wait(0.05)
            return c.bcast_box[0]


class TestThreadedSPMDParity:
    """The full SPMD protocol against real master/worker generators.

    Each MPI rank is a thread holding a :class:`ClusterComm` view; every
    thread makes the identical ``run_p2mdie`` call, exactly like ranks of
    an ``mpiexec`` launch.  The learned theory must be bit-identical to
    the fault-free sim run — crashes, spares, heartbeats and all.
    """

    def _spmd(self, ds, n_ranks, plan, spares=0, p=3):
        from repro.parallel import run_p2mdie

        self.cluster = cluster = ClusterComm(n_ranks)
        results = {}
        errors = {}

        def rank_main(r):
            try:
                bk = MPIBackend(comm=cluster.view(r))
                results[r] = run_p2mdie(
                    ds.kb, ds.pos, ds.neg, ds.modes, ds.config,
                    p=p, width=10, seed=0, backend=bk,
                    fault_plan=plan, spares=spares,
                )
            except BaseException as exc:  # surface in the test, not a hang
                errors[r] = exc

        threads = [threading.Thread(target=rank_main, args=(r,)) for r in range(n_ranks)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads), "SPMD run deadlocked"
        assert not errors, f"rank failures: {errors}"
        return results

    @pytest.fixture(scope="class")
    def krki(self):
        from repro.datasets import make_dataset

        return make_dataset("krki", seed=0)

    @pytest.fixture(scope="class")
    def base(self, krki):
        from repro.parallel import run_p2mdie

        return run_p2mdie(krki.kb, krki.pos, krki.neg, krki.modes, krki.config,
                          p=3, width=10, seed=0)

    def test_fault_free_parity(self, fake_mpi, krki, base):
        results = self._spmd(krki, 4, plan=None)
        assert results[0].theory == base.theory
        # every rank's front-end returns the rank-0 artifacts
        assert results[2].theory == base.theory
        # what went on the communicator is what CommStats counted, and it
        # is the simulator's count: Table 4 is comparable across substrates
        comm = results[0].comm
        assert (self.cluster.messages, self.cluster.nbytes) == (comm.messages, comm.bytes_total)
        assert (comm.messages, comm.bytes_total) == (base.comm.messages, base.comm.bytes_total)

    def test_crash_recovery_parity(self, fake_mpi, krki, base):
        plan = FaultPlan(
            crashes=(WorkerCrash(rank=2, on_recv=2, tag="start_pipeline"),), timeout=2.0
        )
        results = self._spmd(krki, 4, plan=plan)
        res = results[0]
        assert res.theory == base.theory
        assert [(l.epoch, l.bag_size, tuple(l.accepted), l.pos_covered) for l in res.epoch_logs] \
            == [(l.epoch, l.bag_size, tuple(l.accepted), l.pos_covered) for l in base.epoch_logs]
        assert any(f.kind == "crash" and f.rank == 2 for f in res.fault_log)
        assert any("declared dead" in ev for ev in res.fault_events)

    def test_crash_with_spare_adoption(self, fake_mpi, krki, base):
        plan = FaultPlan(
            crashes=(WorkerCrash(rank=3, on_recv=1, tag="evaluate"),), timeout=2.0
        )
        results = self._spmd(krki, 5, plan=plan, spares=1)
        assert results[0].theory == base.theory
        assert any("adopted by host 4" in ev for ev in results[0].fault_events)
