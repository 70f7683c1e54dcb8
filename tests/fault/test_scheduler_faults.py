"""DES-level fault semantics: timed receives, crash/straggler/loss events."""

import pytest

from repro.backend import SimBackend
from repro.backend.sim import DeadlockError
from repro.cluster.process import SimProcess
from repro.fault.plan import FaultPlan, MessageLoss, Straggler, WorkerCrash
from repro.parallel.messages import Ping, Pong, Stop


class Echo(SimProcess):
    """Replies a Pong to every Ping; stops on Stop."""

    def run(self, ctx):
        while True:
            msg = yield ctx.recv()
            if isinstance(msg.payload, Stop):
                return
            yield ctx.compute(10, label="work")
            yield ctx.send(msg.src, Pong(rank=self.rank, token=msg.payload.token), tag="pong")


class TestRecvTimeout:
    def test_timeout_resumes_with_none(self):
        class Waiter(SimProcess):
            def __init__(self):
                super().__init__(0)
                self.got = "unset"
                self.when = None

            def run(self, ctx):
                self.got = yield ctx.recv(timeout=2.5)
                self.when = ctx.clock
                yield ctx.send(1, Stop(), tag="stop")

        w = Waiter()
        SimBackend().run([w, Echo(1)])
        assert w.got is None
        assert w.when == pytest.approx(2.5)

    def test_message_beats_timeout(self):
        class Asker(SimProcess):
            def __init__(self):
                super().__init__(0)
                self.got = None

            def run(self, ctx):
                yield ctx.send(1, Ping(token=3), tag="ping")
                self.got = yield ctx.recv(timeout=100.0)
                yield ctx.send(1, Stop(), tag="stop")

        a = Asker()
        SimBackend().run([a, Echo(1)])
        assert a.got is not None and a.got.payload == Pong(rank=1, token=3)

    def test_timed_recv_prevents_deadlock_error(self):
        class OnlyWaits(SimProcess):
            def run(self, ctx):
                got = yield ctx.recv(timeout=1.0)
                assert got is None

        SimBackend().run([OnlyWaits(0)])  # no DeadlockError

        class WaitsForever(SimProcess):
            def run(self, ctx):
                yield ctx.recv()

        with pytest.raises(DeadlockError):
            SimBackend().run([WaitsForever(0)])


class Master(SimProcess):
    """Pings worker 1 n times with a timed receive; counts replies."""

    def __init__(self, n=3, timeout=5.0):
        super().__init__(0)
        self.n = n
        self.timeout = timeout
        self.replies = 0
        self.timeouts = 0

    def run(self, ctx):
        for i in range(self.n):
            yield ctx.send(1, Ping(token=i), tag="ping")
            msg = yield ctx.recv(timeout=self.timeout)
            if msg is None:
                self.timeouts += 1
            else:
                self.replies += 1
        yield ctx.send(1, Stop(), tag="stop")


class TestCrash:
    def test_on_recv_crash_counts_matching_messages(self):
        m = Master(n=3)
        plan = FaultPlan(crashes=(WorkerCrash(rank=1, on_recv=2, tag="ping"),))
        run = SimBackend().run([m, Echo(1)], fault_plan=plan)
        assert m.replies == 1  # first ping answered, second killed the worker
        assert m.timeouts == 2
        assert [f.kind for f in run.fault_log] == ["crash"]
        assert run.fault_log[0].rank == 1
        # the crashed rank's stale state is not handed back
        assert [p.rank for p in run.procs] == [0]

    def test_at_time_crash_kills_blocked_process(self):
        m = Master(n=1, timeout=10.0)
        plan = FaultPlan(crashes=(WorkerCrash(rank=1, at_time=0.0),))
        run = SimBackend().run([m, Echo(1)], fault_plan=plan)
        assert m.replies == 0 and m.timeouts == 1
        assert run.procs == [m]

    def test_sends_to_dead_rank_vanish(self):
        m = Master(n=2, timeout=1.0)
        plan = FaultPlan(crashes=(WorkerCrash(rank=1, at_time=0.0),))
        # the post-crash pings are dropped, no error
        SimBackend().run([m, Echo(1)], fault_plan=plan)
        assert m.timeouts == 2


class TestStraggler:
    def test_straggler_scales_compute_time(self):
        m1 = Master(n=2)
        t_base = SimBackend().run([m1, Echo(1)]).seconds
        m2 = Master(n=2)
        plan = FaultPlan(stragglers=(Straggler(rank=1, factor=10.0),))
        t_slow = SimBackend().run([m2, Echo(1)], fault_plan=plan).seconds
        assert m2.replies == 2  # results unchanged
        assert t_slow > t_base  # but time inflated


class TestMessageLoss:
    def test_nth_message_on_link_dropped(self):
        m = Master(n=3)
        plan = FaultPlan(losses=(MessageLoss(src=0, dst=1, nth=2),))
        run = SimBackend().run([m, Echo(1)], fault_plan=plan)
        assert m.replies == 2
        assert m.timeouts == 1
        # one constructor (RankFaults.drop_record) for every substrate: the
        # wall-clock side of this is test_mpi_fault.py's "->1 #2 tag=rules"
        assert [(f.kind, f.rank, f.detail) for f in run.fault_log] == [
            ("drop", 0, "->1 #2 tag=ping")
        ]

    def test_sender_still_charged_for_lost_message(self):
        m = Master(n=1, timeout=1.0)
        plan = FaultPlan(losses=(MessageLoss(src=0, dst=1, nth=1),))
        run = SimBackend().run([m, Echo(1)], fault_plan=plan)
        # ping (lost) + stop: both appear in the communication accounting.
        assert run.comm.messages == 2
