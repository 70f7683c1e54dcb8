"""Socket-level fuzzing of the JSON-lines front door.

The promise under test: whatever bytes arrive — truncated lines,
oversized lines, garbage that decodes to nothing — the server either
answers with a structured error or closes the connection cleanly.  It
never hangs a connection task, never crashes the event loop, and the
connection *after* the abuse still gets served.
"""

import contextlib
import json
import os
import random
import socket
import threading

import pytest

from repro.service import ServiceClient, serve
from repro.service.server import MAX_FRAME

IO_TIMEOUT = 15.0  # every raw-socket op is bounded: a hang fails the test


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    ready = threading.Event()
    box = {}

    def on_ready(srv):
        box["port"] = srv.port
        ready.set()

    thread = threading.Thread(
        target=serve,
        kwargs=dict(
            port=0, slots=1,
            state_dir=str(tmp_path / "jobs"),
            registry_dir=str(tmp_path / "registry"),
            ready=on_ready,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10)
    yield box["port"]
    with ServiceClient(port=box["port"]) as c:
        c.request({"op": "shutdown"})
    thread.join(timeout=15)


def raw_connection(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT)
    sock.settimeout(IO_TIMEOUT)
    return sock


@contextlib.contextmanager
def running_server(state_dir, registry_dir):
    """Serve ``registry_dir`` on a free port for the ``with`` block; the
    block's own ``shutdown`` request (if any) ends it early."""
    ready = threading.Event()
    box = {}

    def on_ready(srv):
        box["port"] = srv.port
        ready.set()

    thread = threading.Thread(
        target=serve,
        kwargs=dict(
            port=0, slots=1, state_dir=state_dir, registry_dir=registry_dir, ready=on_ready
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10)
    try:
        yield box["port"]
    finally:
        if thread.is_alive():
            with contextlib.suppress(OSError), ServiceClient(port=box["port"]) as c:
                c.request({"op": "shutdown"})
        thread.join(timeout=15)


def assert_still_serving(port):
    """The abuse above must not have taken the server down."""
    with ServiceClient(port=port) as c:
        assert c.request({"op": "ping"})["ok"]


class TestJsonFrontDoor:
    def test_garbage_line_answered_connection_kept(self, server):
        sock = raw_connection(server)
        with sock:
            f = sock.makefile("rwb")
            f.write(b"\x00\xff\xfe this is not json\n")
            f.flush()
            resp = json.loads(f.readline())
            assert not resp["ok"] and resp["code"] == "bad_request"
            f.write(b'{"op": "ping"}\n')  # same connection still serves
            f.flush()
            assert json.loads(f.readline())["ok"]
        assert_still_serving(server)

    def test_non_object_request_rejected(self, server):
        sock = raw_connection(server)
        with sock:
            f = sock.makefile("rwb")
            f.write(b"[1, 2, 3]\n")
            f.flush()
            resp = json.loads(f.readline())
            assert not resp["ok"] and resp["code"] == "bad_request"
        assert_still_serving(server)

    def test_truncated_line_answered_then_closed(self, server):
        sock = raw_connection(server)
        with sock:
            f = sock.makefile("rb")
            sock.sendall(b'{"op": "ping"')  # no newline, then half-close
            sock.shutdown(socket.SHUT_WR)
            # EOF turns the partial line into a (broken) request: the
            # server answers it structurally, then closes — no hang.
            resp = json.loads(f.readline())
            assert not resp["ok"] and resp["code"] == "bad_request"
            assert f.readline() == b""
        assert_still_serving(server)

    def test_oversized_line_gets_structured_error(self, server):
        sock = raw_connection(server)
        with sock:
            f = sock.makefile("rwb")
            f.write(b'{"pad": "' + b"a" * (MAX_FRAME + 16) + b'"}\n')
            f.flush()
            resp = json.loads(f.readline())
            assert not resp["ok"] and resp["code"] == "frame_too_large"
            # The tail of an oversized line cannot be resynchronized:
            # the server closes after answering.
            assert f.readline() == b""
        assert_still_serving(server)

    def test_cap_counts_the_line_without_its_newline(self, server, monkeypatch):
        # The cap shrunk to 64 bytes, so its edge is cheap to reach: 64
        # bytes and a newline are read, 65 and a newline are refused.
        from repro.service import server as front_door

        monkeypatch.setattr(front_door, "MAX_FRAME", 64)
        head = b'{"op": "ping", "pad": "'
        fits = head + b"a" * (64 - len(head) - 2) + b'"}'
        assert len(fits) == 64
        sock = raw_connection(server)
        with sock:
            f = sock.makefile("rwb")
            f.write(fits + b"\n")
            f.flush()
            assert json.loads(f.readline())["pong"]
            f.write(b" " + fits + b"\n")
            f.flush()
            resp = json.loads(f.readline())
            assert resp["code"] == "frame_too_large"
            assert resp["error"] == "request line exceeds the 64-byte cap"
            assert f.readline() == b""
        assert_still_serving(server)

    def test_random_bytes_never_hang(self, server):
        rng = random.Random(0)
        for trial in range(8):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 2048)))
            sock = raw_connection(server)
            with sock:
                sock.sendall(blob)
                sock.shutdown(socket.SHUT_WR)
                # Bounded by the socket timeout: the server must answer
                # (anything) or close; either drains to EOF.
                while sock.recv(65536):
                    pass
        assert_still_serving(server)


class TestCorruptCertificateFrontDoor:
    """A ``.cert`` an old sampled run left beside a theory, damaged while
    the server is live, changes nothing: the server never reads it."""

    def test_live_corruption_answers_structurally(
        self, tmp_path, trains, trains_theory, parent_cert
    ):
        from repro.service import TheoryRegistry

        registry = TheoryRegistry(str(tmp_path / "registry"))
        prov = {"dataset": "trains", "seed": "0", "scale": "small"}
        registry.publish("live-corrupt", trains_theory.theory, provenance=prov)
        stray = os.path.join(registry.root, "live-corrupt", "v0001.cert")
        with open(stray, "wb") as fh:
            fh.write(parent_cert)
        with running_server(str(tmp_path / "jobs"), registry.root) as port:
            with ServiceClient(port=port) as c:
                before = c.request({"op": "registry", "action": "show", "name": "live-corrupt"})
                with open(stray, "wb") as fh:
                    fh.write(b"\xde\xad\xbe\xef")
                after = c.request({"op": "registry", "action": "show", "name": "live-corrupt"})
                assert before["ok"] and after["ok"]
                assert after["record"] == before["record"]
                assert not [k for k in after if "cert" in k]
                result = c.query("live-corrupt", [str(e) for e in trains.pos])
                assert result["n_covered"] == len(trains.pos)
                # the same connection keeps serving after the damage
                assert c.request({"op": "ping"})["ok"]
            assert_still_serving(port)


class TestStrayCertificateFrontDoor:
    """A registry root from before sampled coverage was retired, with a
    ``.cert`` beside each theory — one intact, one damaged — boots and
    serves every registry op and a query; the server never opens either
    file and leaves both as they were."""

    def test_old_root_serves_without_reading_stray_files(
        self, tmp_path, trains, trains_theory, parent_cert, opened_paths
    ):
        from repro.service import TheoryRegistry

        registry = TheoryRegistry(str(tmp_path / "registry"))
        prov = {"dataset": "trains", "seed": "0", "scale": "small"}
        for _ in range(2):
            registry.publish("t", trains_theory.theory, provenance=prov)
        strays = {
            os.path.join(registry.root, "t", "v0001.cert"): parent_cert,
            os.path.join(registry.root, "t", "v0002.cert"): b"\x00\xff" * 8,
        }
        for path, body in strays.items():
            with open(path, "wb") as fh:
                fh.write(body)
        opened_paths.clear()

        with running_server(str(tmp_path / "jobs"), registry.root) as port:
            with ServiceClient(port=port) as c:
                def registry_op(action, **kw):
                    return c.request({"op": "registry", "action": action, **kw})

                assert registry_op("list")["theories"] == [
                    {"name": "t", "versions": [1, 2], "promoted": None}
                ]
                assert registry_op("versions", name="t")["versions"] == [1, 2]
                shown = registry_op("show", name="t")
                assert shown["ok"] and shown["record"]["version"] == 2
                assert not [k for k in shown if "cert" in k]
                diff = registry_op("diff", name="t", old=1, new=2)
                assert diff["ok"] and diff["added"] == diff["removed"] == []
                result = c.query("t", [str(e) for e in trains.pos])
                assert result["n_covered"] == len(trains.pos)
                stats = c.request({"op": "stats"})
                assert stats["ok"] and stats["resilience"]["quarantined"] == []
                gc = c.request({"op": "gc", "target": "registry", "name": "t", "keep": 1})
                assert gc["removed"] == [1]
                c.request({"op": "shutdown"})
        assert not set(strays) & set(opened_paths)
        for path, body in strays.items():
            with open(path, "rb") as fh:
                assert fh.read() == body
