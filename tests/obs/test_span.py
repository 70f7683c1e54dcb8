"""Tests for the telemetry span layer: wire round-trips, Tracer, JSONL."""

import json
import math
import threading

import pytest

import repro.backend.base
import repro.backend.sim
import repro.cluster.process
import repro.obs
from repro.obs.span import (
    NULL_TRACER,
    Span,
    SpanBatch,
    Tracer,
    decode_batch,
    encode_batch,
    read_spans_jsonl,
    write_spans_jsonl,
)
from repro.parallel import wire


class TestSpan:
    def test_one_record_for_every_layer(self):
        # Defined once, in its telemetry home: the simulator and the real
        # backends record the same class, and the process model has none.
        assert repro.obs.Span is Span is repro.backend.base.Span is repro.backend.sim.Span
        assert not hasattr(repro.cluster.process, "Span")

    def test_duration(self):
        assert Span(1, "saturate", 2.0, 3.5).duration == 1.5

    def test_dict_round_trip(self):
        s = Span(3, "search(s2)", 0.125, 0.75, (("epoch", "4"), ("stage", "2")))
        assert Span.from_dict(s.to_dict()) == s

    def test_dict_omits_empty_attrs(self):
        assert "attrs" not in Span(0, "load", 0.0, 1.0).to_dict()


class TestWireCodec:
    def test_batch_round_trip(self):
        batch = SpanBatch(
            rank=2,
            spans=(
                Span(2, "saturate", 0.0, 0.25),
                Span(2, "evaluate", 0.25, 1.0, (("epoch", "1"),)),
            ),
        )
        data = wire.encode_always(batch)
        assert data is not None
        assert wire.decode(data) == batch

    def test_f64_is_exact(self):
        # Wall-clock timestamps must survive the wire bit-for-bit —
        # f64 fields are raw IEEE-754, not varint-quantised.
        awkward = (0.1, 1e-9, 12345.6789, math.pi, 2.0**52 + 0.5)
        spans = tuple(Span(0, "compute", v, v + 0.1) for v in awkward)
        out = wire.decode(wire.encode_always(SpanBatch(0, spans)))
        for orig, got in zip(spans, out.spans):
            assert got.start == orig.start  # exact equality, not approx
            assert got.end == orig.end

    def test_encode_decode_batch_helpers(self):
        trace = [Span(1, "load", 0.0, 0.5), Span(1, "search(s1)", 0.5, 2.0)]
        back = decode_batch(encode_batch(1, trace))
        assert back == trace

    def test_decode_batch_rejects_other_messages(self):
        from repro.parallel.messages import Ping

        data = wire.encode_always(Ping(token=1))
        with pytest.raises(wire.WireError):
            decode_batch(data)


class TestTracer:
    def test_span_context_manager_records(self):
        ticks = iter([1.0, 3.5])
        t = Tracer(rank=4, clock=lambda: next(ticks))
        with t.span("op:query", client="c1"):
            pass
        (s,) = t.spans()
        assert s == Span(4, "op:query", 1.0, 3.5, (("client", "c1"),))

    def test_record_sorts_attrs(self):
        t = Tracer()
        t.record("x", 0.0, 1.0, zeta="1", alpha="2")
        (s,) = t.spans()
        assert s.attrs == (("alpha", "2"), ("zeta", "1"))

    def test_span_recorded_even_on_exception(self):
        t = Tracer(clock=iter([0.0, 1.0]).__next__)
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("x")
        assert len(t.spans()) == 1

    def test_thread_safety(self):
        t = Tracer()
        threads = [
            threading.Thread(
                target=lambda: [t.record("w", 0.0, 1.0) for _ in range(200)]
            )
            for _ in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(t.spans()) == 800

    def test_jsonl_sink_write_through(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        t = Tracer(rank=1, sink=path)
        t.record("load", 0.0, 0.5)
        t.record("evaluate", 0.5, 1.0, epoch="2")
        t.close()
        back = read_spans_jsonl(path)
        assert back == t.spans()


class TestNullTracer:
    def test_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", k="v"):
            pass
        NULL_TRACER.record("x", 0.0, 1.0)
        assert NULL_TRACER.spans() == []
        NULL_TRACER.close()  # no-op, must not raise


class TestJsonl:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        spans = [Span(0, "load", 0.0, 1.0), Span(1, "mark_covered", 1.0, 2.0, (("n", "3"),))]
        assert write_spans_jsonl(path, spans) == 2
        assert read_spans_jsonl(path) == spans

    def test_one_object_per_line(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        write_spans_jsonl(path, [Span(0, "a", 0.0, 1.0)])
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln]
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "a"

    def test_skips_blank_lines(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps(Span(0, "a", 0.0, 1.0).to_dict()) + "\n\n")
        assert len(read_spans_jsonl(path)) == 1
