"""End-to-end telemetry through the live service: request ids stamped at
the transport, the ``metrics`` op, the Prometheus scrape endpoint, and
the per-request span sink behind ``repro serve --trace-out``."""

import socket
import threading

import pytest

from repro.obs import Tracer, read_spans_jsonl
from repro.service import ServiceClient, serve
from repro.service.server import stamp_request_id


def start_server(tmp_path, **kwargs):
    """serve() on an ephemeral port; returns (thread, server)."""
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
            registry_dir=str(tmp_path / "registry"),
            ready=on_ready,
            **kwargs,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10), "server did not come up"
    return thread, box["server"]


def shutdown(port, thread):
    with ServiceClient(port=port) as c:
        c.request({"op": "shutdown"})
    thread.join(timeout=15)


def http_get(port, path="/metrics", timeout=10.0):
    """Minimal HTTP/1.0 GET; returns (status_line, headers, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks).decode("utf-8")
    head, _, body = raw.partition("\r\n\r\n")
    status, *header_lines = head.split("\r\n")
    headers = dict(h.split(": ", 1) for h in header_lines if ": " in h)
    return status, headers, body


class TestStampRequestId:
    def test_generates_when_absent(self):
        req = {"op": "ping"}
        rid = stamp_request_id(req)
        assert req["request_id"] == rid
        assert rid.startswith("req-")

    def test_keeps_client_supplied_id(self):
        req = {"op": "ping", "request_id": "mine-42"}
        assert stamp_request_id(req) == "mine-42"
        assert req["request_id"] == "mine-42"

    def test_unique(self):
        assert stamp_request_id({}) != stamp_request_id({})


class TestLiveTelemetry:
    @pytest.fixture
    def server(self, tmp_path):
        trace_path = str(tmp_path / "serve-trace.jsonl")
        tracer = Tracer(rank=0, sink=trace_path)
        thread, srv = start_server(tmp_path, metrics_port=0, tracer=tracer)
        assert srv.metrics_bound_port, "metrics endpoint did not bind"
        yield srv, trace_path
        shutdown(srv.port, thread)

    def test_request_id_echoed_on_every_transport(self, server):
        srv, _ = server
        with ServiceClient(port=srv.port) as c:
            resp = c.request({"op": "ping"})
            assert resp["ok"]
            assert resp["request_id"].startswith("req-")
            echoed = c.request({"op": "ping", "request_id": "mine-1"})
            assert echoed["request_id"] == "mine-1"
        with ServiceClient(port=srv.port, transport="wire") as c:
            resp = c.request({"op": "ping"})
            assert resp["request_id"].startswith("req-")

    def test_metrics_op_counts_requests(self, server):
        srv, _ = server
        with ServiceClient(port=srv.port) as c:
            c.request({"op": "ping"})
            resp = c.request({"op": "metrics"})
        assert resp["ok"]
        assert resp["metrics"]["repro_requests_total"]["op=ping"] >= 1

    def test_prometheus_endpoint(self, server):
        srv, _ = server
        with ServiceClient(port=srv.port) as c:
            c.request({"op": "ping"})
        status, headers, body = http_get(srv.metrics_bound_port)
        assert " 200 " in status
        assert headers["Content-Type"].startswith("text/plain")
        assert int(headers["Content-Length"]) == len(body.encode("utf-8"))
        assert "# TYPE repro_requests_total counter" in body
        assert 'repro_requests_total{op="ping"}' in body
        assert "repro_request_latency_seconds_bucket" in body
        assert "repro_scheduler_slots" in body

    def test_trace_sink_records_request_spans(self, server):
        srv, trace_path = server
        with ServiceClient(port=srv.port) as c:
            c.request({"op": "ping"})
            c.request({"op": "stats"})
        spans = read_spans_jsonl(trace_path)
        names = {s.name for s in spans}
        assert "op:ping" in names and "op:stats" in names
        for s in spans:
            assert s.end >= s.start
