"""The front door's answers, frozen as JSON-lines response dicts.

``tests/data/front_door_responses.json`` holds, for a fixed corpus of
requests sent as JSON lines over a socket, every response line the
server wrote back: each op the :mod:`repro.service.server` docstring
lists, once plain and once with ``"stream": true``, the four refusals
(unauthenticated, deadline exceeded, bad request, overloaded), and the
requests of the retired ``registry`` op and ``registry`` gc target, which
the server refuses by name.
Every request carries its own ``request_id``, so the ids echo verbatim.

Values that change from run to run (a job's wall seconds, the latency
histograms of ``stats``, the commit a theory was published at) are named
in :data:`VOLATILE` and replaced by
``"<stripped>"`` wherever they occur, so the key stays visible and only
its value is left out.  A change to anything else in a response — a
field added, dropped or renamed, a value or an error message moved — is
a change to the protocol, and shows here as a diff of the file.
"""

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.fault.service import LeaseFault, ServiceFaultPlan
from repro.service import TheoryRegistry, serve

WITNESS = Path(__file__).resolve().parents[1] / "data" / "front_door_responses.json"
TOKEN = "sesame"

#: keys whose values differ between two runs of the same corpus.
VOLATILE = frozenset(("seconds", "metrics", "git_sha"))

TRAINS = ["eastbound(t0)", "eastbound(t5)", "eastbound(t1)", "eastbound(t13)"]
SPEC = {"dataset": "trains", "algo": "mdie", "seed": 0, "register_as": "t"}

#: (connection, request) in the order they are sent.  Connection "main"
#: is opened first and authenticates with its fourth request; "wire" asks
#: for the wire transport in a hello of its own.
CORPUS = [
    ("main", {"op": "jobs"}),  # refused: no hello yet
    ("main", {"op": "ping"}),
    ("main", {"op": "ping", "stream": True}),
    ("main", {"op": "hello", "token": TOKEN, "client": "witness"}),
    ("main", {"op": "hello", "token": TOKEN, "client": "witness", "stream": True}),
    ("main", {"op": "submit", "spec": SPEC}),
    ("main", {"op": "wait", "job": "job-0001", "timeout": 120}),
    ("main", {"op": "submit", "spec": SPEC, "stream": True}),
    ("main", {"op": "wait", "job": "job-0002", "timeout": 120, "stream": True}),
    ("main", {"op": "jobs"}),
    ("main", {"op": "jobs", "stream": True}),
    ("main", {"op": "status", "job": "job-0001"}),
    ("main", {"op": "status", "job": "job-0001", "stream": True}),
    ("main", {"op": "cancel", "job": "job-0001"}),
    ("main", {"op": "cancel", "job": "job-0001", "stream": True}),
    ("main", {"op": "query", "theory": "t", "examples": TRAINS}),
    ("main", {"op": "query", "theory": "t", "examples": TRAINS, "version": 1}),
    ("main", {"op": "query", "theory": "t", "examples": TRAINS, "shards": 2}),
    ("main", {"op": "query", "theory": "t", "examples": TRAINS, "stream": True}),
    ("main", {"op": "query", "theory": "t", "examples": TRAINS, "shards": 2,
              "stream": True}),
    ("main", {"op": "registry", "action": "list"}),
    ("main", {"op": "registry", "action": "list", "stream": True}),
    ("main", {"op": "registry", "action": "versions", "name": "t"}),
    ("main", {"op": "registry", "action": "versions", "name": "t", "stream": True}),
    ("main", {"op": "registry", "action": "show", "name": "t", "version": 1}),
    ("main", {"op": "registry", "action": "show", "name": "t", "stream": True}),
    ("main", {"op": "registry", "action": "diff", "name": "t", "old": 1, "new": 2}),
    ("main", {"op": "registry", "action": "diff", "name": "t", "old": 2, "new": 3,
              "stream": True}),
    ("main", {"op": "registry", "action": "promote", "name": "t", "version": 2}),
    ("main", {"op": "registry", "action": "promote", "name": "t", "version": 3,
              "stream": True}),
    ("main", {"op": "gc", "target": "jobs", "keep": 1}),
    ("main", {"op": "gc", "target": "jobs", "keep": 0, "stream": True}),
    ("main", {"op": "gc", "target": "registry", "name": "t", "keep": 2}),
    ("main", {"op": "gc", "target": "registry", "name": "t", "keep": 1,
              "stream": True}),
    ("main", {"op": "stats"}),
    ("main", {"op": "stats", "stream": True}),
    # refusals
    ("main", {"op": "query", "theory": "t", "examples": TRAINS, "deadline_ms": 1e-9}),
    ("main", {"op": "query", "theory": "t", "examples": TRAINS, "deadline_ms": 1e-9,
              "stream": True}),
    ("main", {"op": "frobnicate"}),
    ("main", {"op": "ping", "deadline_ms": -1}),
    ("main", {"op": "query", "theory": "t", "examples": "eastbound(t0)"}),
    ("main", {"op": "query", "theory": "t", "examples": [7]}),
    ("main", {"op": "query", "theory": "nope", "examples": TRAINS}),
    ("wire", {"op": "hello", "token": TOKEN, "transport": "wire"}),
    ("main", {"op": "shutdown"}),
]


def strip(value):
    """``value`` with every :data:`VOLATILE` key's value replaced."""
    if isinstance(value, dict):
        return {
            k: "<stripped>" if k in VOLATILE else strip(v) for k, v in value.items()
        }
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def start(tmp_path, name, theory, **kwargs):
    """serve() on an ephemeral port with theory ``t`` published once."""
    registry = tmp_path / name / "registry"
    TheoryRegistry(str(registry)).publish(
        "t", theory.theory, config_sig=theory.config_sig,
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
            port=0, slots=1, state_dir=str(tmp_path / name / "jobs"),
            registry_dir=str(registry), ready=on_ready, **kwargs,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10), "server did not come up"
    return box["server"], thread


class Line:
    """One raw JSON-lines connection: a request line out, response lines back."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.file = self.sock.makefile("rwb")

    def send(self, request):
        self.file.write((json.dumps(request) + "\n").encode("utf-8"))
        self.file.flush()

    def read(self):
        """Every response line to one request: shard frames, then the last."""
        responses = [json.loads(self.file.readline())]
        while responses[-1].get("frame") == "shard":
            responses.append(json.loads(self.file.readline()))
        return responses

    def ask(self, request):
        self.send(request)
        return self.read()

    def close(self):
        self.file.close()
        self.sock.close()


def run_corpus(tmp_path, theory) -> list:
    """[{"request", "responses"}] for :data:`CORPUS`, then an overloaded
    refusal and a streamed shutdown on a second server."""
    exchanges = []

    def record(request, responses):
        exchanges.append({"request": request, "responses": strip(responses)})

    server, thread = start(tmp_path, "a", theory, auth_token=TOKEN)
    lines = {}
    try:
        for i, (conn, request) in enumerate(CORPUS, 1):
            request = {**request, "request_id": f"fd-{i:03d}"}
            if conn not in lines:
                lines[conn] = Line(server.port)
            record(request, lines[conn].ask(request))
        thread.join(timeout=15)
        assert not thread.is_alive(), "shutdown did not stop the server"
    finally:
        for line in lines.values():
            line.close()

    # Overloaded: a slow engine lease holds the one admission slot while
    # a ping arrives on another connection.
    plan = ServiceFaultPlan(leases=(LeaseFault(on_lease=1, mode="slow", delay=1.0),))
    server, thread = start(tmp_path, "b", theory, max_inflight=1, fault_plan=plan)
    held, other = Line(server.port), Line(server.port)
    try:
        slow = {"op": "query", "theory": "t", "examples": TRAINS, "request_id": "fd-901"}
        held.send(slow)
        deadline = time.monotonic() + 10
        while server._inflight < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        ping = {"op": "ping", "request_id": "fd-902"}
        record(ping, other.ask(ping))
        record(slow, held.read())
        bye = {"op": "shutdown", "stream": True, "request_id": "fd-903"}
        record(bye, other.ask(bye))
        thread.join(timeout=15)
        assert not thread.is_alive(), "shutdown did not stop the server"
    finally:
        held.close()
        other.close()
    return exchanges


@pytest.fixture(scope="module")
def witness():
    return json.loads(WITNESS.read_text())


def test_corpus_is_the_recorded_one(witness):
    sent = [e["request"] for e in witness["exchanges"]]
    assert sent[: len(CORPUS)] == [
        {**request, "request_id": f"fd-{i:03d}"} for i, (_, request) in enumerate(CORPUS, 1)
    ]
    assert witness["volatile"] == sorted(VOLATILE)


def test_front_door_answers_as_recorded(tmp_path, trains_theory, witness):
    got = run_corpus(tmp_path, trains_theory)
    assert [e["request"] for e in got] == [e["request"] for e in witness["exchanges"]]
    for mine, recorded in zip(got, witness["exchanges"]):
        assert mine["responses"] == recorded["responses"], mine["request"]
