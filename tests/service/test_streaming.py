"""Streaming query tier: shard ordering, reassembly, cancellation, transports.

The invariant under test: a sharded/streamed query's covered bitset is
bit-identical to the sequential :class:`QueryEngine` path, whatever the
shard count, scheduling or transport — and a client that walks away
mid-stream leaks no shard work (watched through the engine's
leak-detection counters).
"""

import threading
import time

import pytest

from repro.parallel.partition import shard_spans
from repro.service import QueryEngine
from repro.service import ServiceClient, serve


@pytest.fixture
def published(registry, trains_theory):
    registry.publish(
        "trains-th",
        trains_theory.theory,
        config_sig=trains_theory.config_sig,
        provenance={"dataset": "trains", "seed": "0", "scale": "small"},
    )
    return registry


class TestQueryStreamInProcess:
    def test_frames_arrive_in_shard_order_with_contiguous_spans(
        self, published, trains
    ):
        examples = trains.pos + trains.neg
        qe = QueryEngine(registry=published)
        stream = qe.query_stream("trains-th", examples, shards=4)
        frames = list(stream.frames())
        assert [f.shard for f in frames] == [0, 1, 2, 3]
        assert [(f.lo, f.lo + f.n) for f in frames] == shard_spans(len(examples), 4)
        assert sum(f.n for f in frames) == len(examples)

    def test_reassembly_is_bit_identical_to_sequential(self, published, trains):
        examples = trains.pos + trains.neg
        qe = QueryEngine(registry=published)
        seq = qe.query("trains-th", examples)
        stream = qe.query_stream("trains-th", examples, shards=3)
        merged = 0
        for frame in stream.frames():
            merged |= frame.covered << frame.lo
        result = stream.result()
        assert merged == seq.covered
        assert result.covered == seq.covered
        assert result.n == seq.n and result.n_covered == seq.n_covered

    @pytest.mark.parametrize("shards", [2, 3, 7, 100])
    def test_parity_across_shard_counts(self, published, trains, shards):
        examples = trains.pos + trains.neg
        qe = QueryEngine(registry=published)
        seq = qe.query("trains-th", examples)
        res = qe.query("trains-th", examples, shards=shards)
        assert res.covered == seq.covered and res.n == seq.n

    def test_parity_with_odd_micro_batch(self, published, trains):
        examples = trains.pos + trains.neg
        qe = QueryEngine(registry=published)
        seq = qe.query("trains-th", examples)
        for micro in (1, 5):
            res = qe.query("trains-th", examples, shards=3, micro_batch=micro)
            assert res.covered == seq.covered

    def test_empty_batch_streams_one_empty_frame(self, published):
        qe = QueryEngine(registry=published)
        stream = qe.query_stream("trains-th", [], shards=4)
        frames = list(stream.frames())
        assert [(f.lo, f.n, f.covered) for f in frames] == [(0, 0, 0)]
        result = stream.result()
        assert result.covered == 0 and result.n == 0 and result.shards == 1

    def test_result_before_drain_raises(self, published, trains):
        qe = QueryEngine(registry=published)
        stream = qe.query_stream("trains-th", trains.pos, shards=2)
        with pytest.raises(RuntimeError, match="not fully consumed"):
            stream.result()
        list(stream.frames())
        assert stream.result().n == len(trains.pos)

    def test_cancel_releases_pending_shard_work(self, published, trains):
        # One worker thread serializes the shards, so after the first
        # frame the remaining tasks are still queued — cancel() must
        # drop them at the executor instead of letting them run.
        examples = (trains.pos + trains.neg) * 500
        qe = QueryEngine(registry=published, shard_workers=1)
        stream = qe.query_stream("trains-th", examples, shards=8)
        assert stream.next_frame(timeout=60) is not None
        stream.cancel()
        assert stream.next_frame() is None
        with pytest.raises(RuntimeError):
            stream.result()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            stats = qe.stats()
            if stats["shard_tasks_active"] == 0:
                break
            time.sleep(0.02)
        assert stats["shard_tasks_active"] == 0
        assert stats["streams_cancelled"] == 1
        assert stats["shard_tasks_started"] < 8, "cancelled shards still ran"

    def test_cancel_is_idempotent(self, published, trains):
        qe = QueryEngine(registry=published)
        stream = qe.query_stream("trains-th", trains.pos, shards=2)
        stream.cancel()
        stream.cancel()
        assert qe.stats()["streams_cancelled"] == 1


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
            with ServiceClient(port=port, transport="wire") as wc:
                assert wc.transport == "wire"
                wire_frames = list(wc.query_stream("trains-th", examples, shards=3))
            # The JSON end frame echoes its request id like every response;
            # WireQueryEnd's frozen layout has no room for one.
            strip = lambda f: {
                k: v for k, v in f.items() if k not in ("ops", "request_id")
            }
            assert [strip(f) for f in wire_frames] == [strip(f) for f in json_frames]
            assert wire_frames[-1]["ops"] == json_frames[-1]["ops"]
        finally:
            shutdown(port, thread)

    def test_disconnect_mid_stream_cancels_pending_shards(
        self, tmp_path, published, trains
    ):
        examples = [str(e) for e in trains.pos + trains.neg] * 500
        port, thread = start_server(tmp_path, published, shard_workers=1)
        try:
            client = ServiceClient(port=port)
            stream = client.query_stream("trains-th", examples, shards=8)
            first = next(stream)
            assert first["frame"] == "shard" and first["shard"] == 0
            client.close()  # walk away mid-stream

            with ServiceClient(port=port) as watcher:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    q = watcher.request({"op": "stats"})["query"]
                    if q["streams_cancelled"] >= 1 and q["shard_tasks_active"] == 0:
                        break
                    time.sleep(0.05)
            assert q["streams_cancelled"] == 1, "disconnect did not cancel the stream"
            assert q["shard_tasks_active"] == 0, "shard work leaked past the stream"
            assert q["shard_tasks_started"] < 8, "cancelled shards still ran"
        finally:
            shutdown(port, thread)
