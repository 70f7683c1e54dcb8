"""Socket-level fuzzing of both front doors (JSON-lines and wire framing).

The promise under test: whatever bytes arrive — truncated frames,
oversized frames, garbage that decodes to nothing — the server either
answers with a structured error or closes the connection cleanly.  It
never hangs a connection task, never crashes the event loop, and the
connection *after* the abuse still gets served.
"""

import json
import random
import socket
import struct
import threading

import pytest

from repro.service import ServiceClient, serve
from repro.service.wiremsg import FRAME_HEADER, MAX_FRAME, pack_frame, WireJson

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


def wire_connection(port):
    """A raw socket already switched to the wire transport."""
    sock = raw_connection(port)
    f = sock.makefile("rwb")
    f.write(b'{"op": "hello", "transport": "wire"}\n')
    f.flush()
    resp = json.loads(f.readline())
    assert resp["ok"] and resp["transport"] == "wire"
    return sock, f


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
    """A damaged ``.cert`` artifact is a *server-side* fuzz case: whatever
    is on disk, the front door answers structurally.  Startup recovery
    quarantines it; damage arriving while live yields a structured
    ``certificate_error`` on ``registry show`` — and in both cases the
    theory itself keeps being served and the server stays up."""

    @pytest.fixture(scope="class")
    def cert_server(self, tmp_path_factory):
        from repro.ilp.sampling import ClauseCertificate, CoverageCertificate
        from repro.logic import Theory
        from repro.logic.parser import parse_clause
        from repro.service import TheoryRegistry

        tmp_path = tmp_path_factory.mktemp("certfuzz")
        registry = TheoryRegistry(str(tmp_path / "registry"))
        cert = CoverageCertificate(
            seed=0, fraction=0.25, delta=0.05, min_stratum=16,
            entries=(ClauseCertificate("p(X) :- q(X).", 1, 0, 1, 1, 2, 0, True),),
        )
        theory = Theory([parse_clause("p(X) :- q(X).")])
        registry.publish("startup-corrupt", theory, certificate=cert)
        registry.publish("live-corrupt", theory, certificate=cert)
        # damage the first one *before* the server boots
        with open(registry.certificate_path("startup-corrupt", 1), "wb") as fh:
            fh.write(b"\x00\xff" * 8)

        ready = threading.Event()
        box = {"registry": registry}

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
        yield box
        with ServiceClient(port=box["port"]) as c:
            c.request({"op": "shutdown"})
        thread.join(timeout=15)

    def test_startup_corruption_quarantined_not_fatal(self, cert_server):
        port = cert_server["port"]
        with ServiceClient(port=port) as c:
            stats = c.request({"op": "stats"})
            assert stats["ok"]
            assert stats["resilience"]["registry_quarantined"] == ["startup-corrupt/v0001"]
            resp = c.request({"op": "registry", "action": "show", "name": "startup-corrupt"})
            assert resp["ok"]  # theory served, quarantined cert simply absent
            assert "certificate" not in resp and "certificate_error" not in resp
        assert_still_serving(port)

    def test_live_corruption_answers_structurally(self, cert_server):
        port = cert_server["port"]
        path = cert_server["registry"].certificate_path("live-corrupt", 1)
        with open(path, "wb") as fh:
            fh.write(b"\xde\xad\xbe\xef")
        with ServiceClient(port=port) as c:
            resp = c.request({"op": "registry", "action": "show", "name": "live-corrupt"})
            assert resp["ok"]  # the exact record is the artifact of record
            assert "certificate_error" in resp
            # the same connection keeps serving after the damaged read
            assert c.request({"op": "ping"})["ok"]
        assert_still_serving(port)

    def test_intact_certificate_still_served(self, cert_server):
        # (startup recovery must not have touched the healthy artifact —
        # run after the startup-corruption leg by class ordering)
        port = cert_server["port"]
        with ServiceClient(port=port) as c:
            resp = c.request({"op": "registry", "action": "show", "name": "live-corrupt"})
            if "certificate" in resp:  # before the live-damage leg ran
                assert resp["certificate"]["ok"] is True


class TestWireFrontDoor:
    def test_oversized_frame_answered_framing_resyncs(self, server):
        sock, f = wire_connection(server)
        with sock:
            # Full oversized frame: header + (MAX_FRAME + 1) payload bytes.
            f.write(FRAME_HEADER.pack(MAX_FRAME + 1))
            f.write(b"\x00" * (MAX_FRAME + 1))
            f.write(pack_frame(WireJson({"op": "ping"})))  # queued behind it
            f.flush()
            from repro.service import wiremsg

            msg, _ = wiremsg.read_frame_from(f)
            assert isinstance(msg, WireJson)
            assert not msg.payload["ok"]
            assert msg.payload["code"] == "frame_too_large"
            # The body was discarded, so the framing is intact and the
            # ping behind the oversized frame still gets its answer.
            msg, _ = wiremsg.read_frame_from(f)
            assert isinstance(msg, WireJson) and msg.payload["ok"]
        assert_still_serving(server)

    def test_truncated_oversized_frame_no_hang(self, server):
        sock, f = wire_connection(server)
        with sock:
            f.write(FRAME_HEADER.pack(MAX_FRAME + 1))
            f.write(b"\x00" * 64)  # a sliver of the promised body
            f.flush()
            sock.shutdown(socket.SHUT_WR)  # EOF mid-discard
            # The server abandons the discard at EOF; the error answer may
            # or may not make it out before close — the invariant is no
            # hang, bounded by the socket timeout.
            while sock.recv(65536):
                pass
        assert_still_serving(server)

    def test_truncated_frame_closes_cleanly(self, server):
        sock, f = wire_connection(server)
        with sock:
            f.write(FRAME_HEADER.pack(100))
            f.write(b"short")
            f.flush()
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(4096) == b""
        assert_still_serving(server)

    def test_garbage_frame_answered_then_closed(self, server):
        sock, f = wire_connection(server)
        with sock:
            payload = b"\xde\xad\xbe\xef garbage that is no wire message"
            f.write(FRAME_HEADER.pack(len(payload)) + payload)
            f.flush()
            from repro.service import wiremsg

            msg, _ = wiremsg.read_frame_from(f)
            assert isinstance(msg, WireJson)
            assert not msg.payload["ok"]
            assert msg.payload["code"] == "bad_request"
            # After a decode failure nothing later on the connection is
            # trustworthy: the server closes.
            assert f.read(1) == b""
        assert_still_serving(server)

    def test_random_frames_never_hang(self, server):
        rng = random.Random(1)
        for trial in range(8):
            payload = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 512))
            )
            sock, f = wire_connection(server)
            with sock:
                f.write(FRAME_HEADER.pack(len(payload)) + payload)
                f.flush()
                sock.shutdown(socket.SHUT_WR)
                while sock.recv(65536):
                    pass
        assert_still_serving(server)

    def test_outbound_oversize_is_structured_client_side(self):
        with pytest.raises(Exception) as err:
            pack_frame(WireJson({"pad": "a" * (MAX_FRAME + 16)}))
        from repro.service.errors import FrameTooLarge

        assert isinstance(err.value, FrameTooLarge)
