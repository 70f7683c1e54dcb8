"""Streaming query tier: span ordering, reassembly, cancellation, transports.

The invariant under test: a spanned/streamed query's covered bitset is
bit-identical to the one-span :class:`QueryEngine` answer (and to
``theory_covered_bits``), whatever the span count or transport — the
spans run one after another in :meth:`QueryEngine.query`'s one loop on
the theory's one engine, holding its lock a span at a time, and a
consumer that walks away mid-stream (its ``on_frame`` raises) pays for
no further span (watched through the chaos injector's lease counter: one
lease per span evaluated).
"""

import threading
import time

import pytest

from repro.fault.service import LeaseFault, ServiceFaultInjector, ServiceFaultPlan
from repro.ilp import coverage
from repro.ilp.coverage import theory_covered_bits
from repro.logic.engine import Engine
from repro.parallel.partition import shard_spans
from repro.service import QueryEngine
from repro.service import ServiceClient, serve
from repro.service.errors import Cancelled


#: a plan whose only fault is unreachable: its injector just counts leases.
COUNT_LEASES = ServiceFaultPlan(leases=(LeaseFault(on_lease=10**9, mode="fail"),))


@pytest.fixture
def published(registry, trains_theory):
    registry.publish(
        "trains-th",
        trains_theory.theory,
        config_sig=trains_theory.config_sig,
        provenance={"dataset": "trains", "seed": "0", "scale": "small"},
    )
    return registry


def hang_up_after(n):
    """An ``on_frame`` that keeps ``n`` frames, then raises :class:`Cancelled`
    — what the server's ``emit`` does once the client is gone."""
    seen = []

    def on_frame(frame):
        if len(seen) == n:
            raise Cancelled("the consumer hung up")
        seen.append(frame)

    return on_frame, seen


class TestQueryStreamInProcess:
    def test_frames_arrive_in_shard_order_with_contiguous_spans(
        self, published, trains
    ):
        examples = trains.pos + trains.neg
        qe = QueryEngine(registry=published)
        frames = []
        qe.query("trains-th", examples, shards=4, on_frame=frames.append)
        assert [f.shard for f in frames] == [0, 1, 2, 3]
        assert [(f.lo, f.lo + f.n) for f in frames] == shard_spans(len(examples), 4)
        assert sum(f.n for f in frames) == len(examples)

    def test_reassembly_is_bit_identical_to_sequential(self, published, trains):
        examples = trains.pos + trains.neg
        qe = QueryEngine(registry=published)
        seq = qe.query("trains-th", examples)
        frames = []
        result = qe.query("trains-th", examples, shards=3, on_frame=frames.append)
        merged = 0
        for frame in frames:
            merged |= frame.covered << frame.lo
        assert merged == seq.covered
        assert result.covered == seq.covered
        assert result.n == seq.n and result.n_covered == seq.n_covered

    @pytest.mark.parametrize("shards", [2, 3, 7, 100])
    def test_parity_across_shard_counts(self, published, trains, shards, drained):
        examples = trains.pos + trains.neg
        qe = QueryEngine(registry=published)
        seq = qe.query("trains-th", examples)
        res = drained(qe, "trains-th", examples, shards=shards)
        assert res.covered == seq.covered and res.n == seq.n

    def test_parity_with_odd_micro_batch(self, published, trains, drained, monkeypatch):
        examples = trains.pos + trains.neg
        qe = QueryEngine(registry=published)
        seq = qe.query("trains-th", examples)
        for micro in (1, 5):
            monkeypatch.setattr(coverage, "_MICRO_BATCH", micro)
            res = drained(qe, "trains-th", examples, shards=3)
            assert res.covered == seq.covered

    def test_every_span_count_equals_theory_covered_bits(
        self, published, trains, trains_theory, monkeypatch
    ):
        # Independent reference: the shared kernel on a fresh engine, no
        # query tier involved.  k = n + 5 asks for more spans than examples.
        examples = trains.pos + trains.neg
        n = len(examples)
        want = theory_covered_bits(
            Engine(trains.kb, trains.config.engine_budget()),
            tuple(trains_theory.theory), examples,
        )
        qe = QueryEngine(registry=published)
        assert qe.query("trains-th", examples).covered == want
        for k in (1, 2, 3, 8, n + 5):
            for micro in (1024, 7):
                monkeypatch.setattr(coverage, "_MICRO_BATCH", micro)
                frames = []
                result = qe.query("trains-th", examples, shards=k, on_frame=frames.append)
                merged = 0
                for frame in frames:
                    merged |= frame.covered << frame.lo
                assert merged == result.covered == want, (k, micro)
                assert result.shards == min(k, n)

    def test_empty_batch_streams_one_empty_frame(self, published):
        qe = QueryEngine(registry=published)
        frames = []
        result = qe.query("trains-th", [], shards=4, on_frame=frames.append)
        assert [(f.lo, f.n, f.covered) for f in frames] == [(0, 0, 0)]
        assert result.covered == 0 and result.n == 0 and result.shards == 1

    def test_result_before_drain_raises(self, published, trains):
        # A batch whose consumer stops taking frames returns no result at
        # all (never a partial one); the same query taken whole does.
        qe = QueryEngine(registry=published)
        on_frame, seen = hang_up_after(1)
        with pytest.raises(Cancelled):
            qe.query("trains-th", trains.pos, shards=2, on_frame=on_frame)
        assert len(seen) == 1
        assert qe.query("trains-th", trains.pos, shards=2).n == len(trains.pos)

    def test_cancel_releases_pending_shard_work(self, published, trains):
        # The consumer hangs up at the first frame: the other seven spans
        # never run.  No worker thread is involved at any point.
        examples = (trains.pos + trains.neg) * 50
        leases = ServiceFaultInjector(COUNT_LEASES)
        qe = QueryEngine(registry=published, fault_injector=leases)
        on_frame, seen = hang_up_after(0)
        with pytest.raises(Cancelled):
            qe.query("trains-th", examples, shards=8, on_frame=on_frame)
        assert seen == []
        assert leases.snapshot()["leases"] == 1 < 8, "cancelled spans still ran"
        assert qe.stats()["streams_cancelled"] == 1

    def test_one_lease_per_span_plain_and_streamed(self, published, trains, drained):
        examples = trains.pos + trains.neg
        leases = ServiceFaultInjector(COUNT_LEASES)
        qe = QueryEngine(registry=published, fault_injector=leases)
        qe.query("trains-th", examples)
        assert leases.snapshot()["leases"] == 1  # a plain query is one span
        assert drained(qe, "trains-th", examples, shards=4).shards == 4
        assert leases.snapshot()["leases"] == 1 + 4
        assert qe.stats()["batches"] == 2  # requests, not spans

    def test_small_query_is_answered_while_a_stream_is_open(self, published, trains):
        # Per-span locking: an 8-span stream whose every span is slowed
        # holds the theory's lock one span at a time, so a 1-example
        # query against the same theory gets in between two spans.
        plan = ServiceFaultPlan(
            leases=tuple(
                LeaseFault(on_lease=k, mode="slow", delay=0.15) for k in range(1, 9)
            )
        )
        qe = QueryEngine(registry=published, fault_injector=ServiceFaultInjector(plan))
        examples = trains.pos + trains.neg
        want = QueryEngine(registry=published).query("trains-th", examples).covered
        seen, result = [], {}

        def consume():
            result["covered"] = qe.query(
                "trains-th", examples, shards=8, on_frame=lambda f: seen.append(f.shard)
            ).covered

        consumer = threading.Thread(target=consume)
        consumer.start()
        try:
            while not seen:  # the stream is open and past its first span
                time.sleep(0.005)
            small = qe.query("trains-th", examples[:1])
            frames_when_answered = len(seen)
        finally:
            consumer.join(timeout=30)
        assert small.n == 1 and small.covered == want & 1
        assert frames_when_answered < 8, "the small query waited for the whole stream"
        assert result["covered"] == want


def start_server(tmp_path, registry, **kwargs):
    """Run serve() against a pre-populated registry; returns (port, thread)."""
    ready = threading.Event()
    box = {}

    def on_ready(server):
        box["server"] = server
        ready.set()

    thread = threading.Thread(
        target=serve,
        kwargs=dict(
            port=0,
            slots=1,
            state_dir=str(tmp_path / "jobs"),
            registry_dir=registry.root,
            ready=on_ready,
            **kwargs,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10), "server did not come up"
    return box["server"].port, thread


def shutdown(port, thread):
    with ServiceClient(port=port) as c:
        c.request({"op": "shutdown"})
    thread.join(timeout=10)


class TestStreamingOverSockets:
    def test_json_stream_frames_and_client_side_reassembly(
        self, tmp_path, published, trains
    ):
        examples = [str(e) for e in trains.pos + trains.neg]
        port, thread = start_server(tmp_path, published)
        try:
            with ServiceClient(port=port) as client:
                frames = list(client.query_stream("trains-th", examples, shards=4))
                plain = client.query("trains-th", examples, shards=4)
            shard_frames, end = frames[:-1], frames[-1]
            assert [f["shard"] for f in shard_frames] == [0, 1, 2, 3]
            assert [(f["lo"], f["lo"] + f["n"]) for f in shard_frames] == shard_spans(
                len(examples), 4
            )
            reassembled = []
            for f in shard_frames:
                assert f["lo"] == len(reassembled)
                reassembled.extend(f["covered"])
            assert end["frame"] == "end" and end["shards"] == 4
            assert reassembled == end["covered"]
            assert end["covered"] == plain["covered"]
            assert end["n_covered"] == sum(end["covered"])
        finally:
            shutdown(port, thread)

    def test_wire_stream_is_bit_identical_to_json_stream(
        self, tmp_path, published, trains
    ):
        examples = [str(e) for e in trains.pos + trains.neg]
        port, thread = start_server(tmp_path, published)
        try:
            with ServiceClient(port=port, transport="json") as jc:
                json_frames = list(jc.query_stream("trains-th", examples, shards=3))
            # A client asking for the retired wire transport streams on
            # JSON-lines: the same frames, the end one with its own id.
            with ServiceClient(port=port, transport="wire") as wc:
                wire_frames = list(wc.query_stream("trains-th", examples, shards=3))
            strip = lambda f: {k: v for k, v in f.items() if k != "request_id"}
            assert [strip(f) for f in wire_frames] == [strip(f) for f in json_frames]
        finally:
            shutdown(port, thread)

    def test_disconnect_mid_stream_cancels_pending_shards(
        self, tmp_path, published, trains
    ):
        examples = [str(e) for e in trains.pos + trains.neg] * 500
        # Span 1 stalls for a second before it runs, so the hang-up below
        # reaches the server while spans 1-7 are still pending, however
        # fast the host runs the spans.
        slow_second = LeaseFault(on_lease=2, mode="slow", delay=1.0)
        plan = ServiceFaultPlan(leases=(slow_second, *COUNT_LEASES.leases))
        port, thread = start_server(tmp_path, published, fault_plan=plan)
        try:
            client = ServiceClient(port=port)
            stream = client.query_stream("trains-th", examples, shards=8)
            first = next(stream)
            assert first["frame"] == "shard" and first["shard"] == 0
            client.close()  # walk away mid-stream

            with ServiceClient(port=port) as watcher:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    stats = watcher.request({"op": "stats"})
                    if stats["query"]["streams_cancelled"] >= 1:
                        break
                    time.sleep(0.05)
                time.sleep(0.5)  # a span that leaked would run now
                leases = watcher.request({"op": "stats"})["faults"]["leases"]
            q = stats["query"]
            assert q["streams_cancelled"] == 1, "disconnect did not cancel the stream"
            assert leases < 8, "cancelled spans still ran"
        finally:
            shutdown(port, thread)
