"""Unit tests for the sim backend's discrete-event loop and virtual cluster."""

import pytest

from repro.backend import SimBackend
from repro.backend.sim import DeadlockError
from repro.cluster.costmodel import OpsCostModel
from repro.cluster.network import NetworkModel
from repro.cluster.process import SimProcess
from repro.logic.parser import parse_clause
from repro.parallel.messages import EvaluateRequest, Ping, Pong, Stop
from repro.parallel.wire import WireError

NET = NetworkModel(latency_s=1.0, bandwidth_bps=1e9, send_overhead_s=0.0)
COST = OpsCostModel(sec_per_op=1.0)


def rules(n):
    """A registered payload whose wire size grows with ``n``."""
    return EvaluateRequest(rules=tuple(parse_clause(f"p(X) :- q{i}(X).") for i in range(n)))


class Echo(SimProcess):
    """Replies to every message until told to stop."""

    def run(self, ctx):
        while True:
            msg = yield ctx.recv()
            if isinstance(msg.payload, Stop):
                return
            yield ctx.send(msg.src, Pong(rank=self.rank, token=msg.payload.token), tag="reply")


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        got = []

        class Client(SimProcess):
            def run(self, ctx):
                yield ctx.send(1, Ping(token=7), tag="req")
                msg = yield ctx.recv(src=1)
                got.append(msg.payload)
                yield ctx.send(1, Stop(), tag="req")

        run = SimBackend(network=NET, cost_model=COST).run([Client(0), Echo(1)])
        assert got == [Pong(rank=1, token=7)]
        assert run.comm.messages == 3

    def test_latency_advances_clock(self):
        class Client(SimProcess):
            def run(self, ctx):
                yield ctx.send(1, Ping(token=0), tag="req")
                yield ctx.recv(src=1)
                assert ctx.clock >= 2.0  # two hops of 1s latency
                yield ctx.send(1, Stop(), tag="req")

        SimBackend(network=NET, cost_model=COST).run([Client(0), Echo(1)])

    def test_compute_advances_only_own_clock(self):
        class Busy(SimProcess):
            def run(self, ctx):
                yield ctx.compute(10)
                yield ctx.send(1, Stop(), tag="req")

        run = SimBackend(network=NET, cost_model=COST).run([Busy(0), Echo(1)])
        assert run.clocks[0] >= 10.0
        assert run.clocks[1] < 12.0  # echo only waited for the message

    def test_fifo_per_link(self):
        order = []

        class Sender(SimProcess):
            def run(self, ctx):
                for i in range(5):
                    yield ctx.send(1, Ping(token=i), tag="data")

        class Receiver(SimProcess):
            def __init__(self):
                super().__init__(1)

            def run(self, ctx):
                for _ in range(5):
                    msg = yield ctx.recv(src=0)
                    order.append(msg.payload.token)

        SimBackend(network=NET, cost_model=COST).run([Sender(0), Receiver()])
        assert order == [0, 1, 2, 3, 4]

    def test_recv_filters_by_tag(self):
        got = []

        class Sender(SimProcess):
            def run(self, ctx):
                yield ctx.send(1, Ping(token=1), tag="low")
                yield ctx.send(1, Ping(token=2), tag="high")

        class Receiver(SimProcess):
            def __init__(self):
                super().__init__(1)

            def run(self, ctx):
                msg = yield ctx.recv(tag="high")
                got.append(msg.payload.token)
                msg = yield ctx.recv(tag="low")
                got.append(msg.payload.token)

        SimBackend(network=NET, cost_model=COST).run([Sender(0), Receiver()])
        assert got == [2, 1]


class TestBroadcast:
    def test_bcast_reaches_all(self):
        seen = []

        class Root(SimProcess):
            def run(self, ctx):
                yield ctx.bcast(Ping(token=5), tag="b")

        class Leaf(SimProcess):
            def run(self, ctx):
                msg = yield ctx.recv(tag="b")
                seen.append((self.rank, msg.payload.token))

        SimBackend(network=NET, cost_model=COST).run([Root(0), Leaf(1), Leaf(2), Leaf(3)])
        assert sorted(seen) == [(1, 5), (2, 5), (3, 5)]

    def test_bcast_serialised_at_sender(self):
        # large payloads: later recipients get later arrival times
        slow_net = NetworkModel(latency_s=0.0, bandwidth_bps=10.0, send_overhead_s=0.0)
        arrivals = {}

        class Root(SimProcess):
            def run(self, ctx):
                yield ctx.bcast(rules(10), tag="b", dsts=(1, 2))

        class Leaf(SimProcess):
            def run(self, ctx):
                msg = yield ctx.recv(tag="b")
                arrivals[self.rank] = msg.arrival_time

        SimBackend(network=slow_net, cost_model=COST).run([Root(0), Leaf(1), Leaf(2)])
        assert arrivals[2] > arrivals[1]


class TestDeterminism:
    def test_identical_runs(self):
        def build():
            class Worker(SimProcess):
                def run(self, ctx):
                    msg = yield ctx.recv()
                    yield ctx.compute(msg.payload.token)
                    yield ctx.send(0, msg.payload, tag="r")

            class Root(SimProcess):
                def run(self, ctx):
                    for k in (1, 2, 3):
                        yield ctx.send(k, Ping(token=k), tag="w")
                    for _ in range(3):
                        yield ctx.recv(tag="r")

            return SimBackend(network=NET, cost_model=COST).run(
                [Root(0), Worker(1), Worker(2), Worker(3)]
            )

        a, b = build(), build()
        assert a.makespan == b.makespan
        assert a.comm.bytes_total == b.comm.bytes_total
        assert a.clocks == b.clocks


class TestErrors:
    def test_deadlock_detected(self):
        class Stuck(SimProcess):
            def run(self, ctx):
                yield ctx.recv()

        with pytest.raises(DeadlockError):
            SimBackend(network=NET, cost_model=COST).run([Stuck(0), Stuck(1)])

    def test_duplicate_ranks_rejected(self):
        class P(SimProcess):
            def run(self, ctx):
                return
                yield

        with pytest.raises(ValueError):
            SimBackend(network=NET, cost_model=COST).run([P(0), P(0)])

    def test_send_to_unknown_rank(self):
        class Bad(SimProcess):
            def run(self, ctx):
                yield ctx.send(99, Ping(token=0), tag="t")

        with pytest.raises(ValueError):
            SimBackend(network=NET, cost_model=COST).run([Bad(0)])

    def test_unregistered_payload_refused_at_send(self):
        class Bad(SimProcess):
            def run(self, ctx):
                yield ctx.send(1, "hello", tag="t")

        with pytest.raises(WireError, match="no wire codec for payload type builtins.str"):
            SimBackend(network=NET, cost_model=COST).run([Bad(0), Echo(1)])

    def test_non_syscall_yield_rejected(self):
        class Bad(SimProcess):
            def run(self, ctx):
                yield "not a syscall"

        with pytest.raises(TypeError):
            SimBackend(network=NET, cost_model=COST).run([Bad(0)])


class TestStatsAndTrace:
    def test_bytes_accounted_by_tag_and_link(self):
        class Root(SimProcess):
            def run(self, ctx):
                yield ctx.send(1, rules(50), tag="data")
                yield ctx.send(1, Stop(), tag="ctl")

        class Sink(SimProcess):
            def run(self, ctx):
                yield ctx.recv()
                yield ctx.recv()

        run = SimBackend(network=NET, cost_model=COST).run([Root(0), Sink(1)])
        assert set(run.comm.bytes_by_tag) == {"data", "ctl"}
        assert run.comm.bytes_by_link[(0, 1)] == run.comm.bytes_total
        assert run.comm.bytes_by_tag["data"] > run.comm.bytes_by_tag["ctl"]

    def test_trace_records_labels(self):
        class Busy(SimProcess):
            def run(self, ctx):
                yield ctx.compute(3, label="phase_a")
                yield ctx.compute(2, label="phase_b")

        run = SimBackend(network=NET, cost_model=COST, record_trace=True).run([Busy(0)])
        assert [s.name for s in run.trace] == ["phase_a", "phase_b"]
        assert run.trace[0].end == run.trace[1].start

    def test_makespan_is_max_clock(self):
        class Busy(SimProcess):
            def __init__(self, rank, amount):
                super().__init__(rank)
                self.amount = amount

            def run(self, ctx):
                yield ctx.compute(self.amount)

        run = SimBackend(network=NET, cost_model=COST).run([Busy(0, 5), Busy(1, 11)])
        assert run.makespan == 11.0
