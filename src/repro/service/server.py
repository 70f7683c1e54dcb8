"""The service front door: a blocking socket tier (stdlib only).

Protocol
--------
The one transport is JSON-lines — one request per line, one response
per line, both JSON objects over plain TCP (``nc localhost 7341``
works).  Every response has ``"ok"``; failures carry ``"error"`` instead
of payload fields::

    → {"op": "submit", "spec": {"dataset": "trains", "algo": "p2mdie", "p": 2}}
    ← {"ok": true, "job": "job-0001"}
    → {"op": "query", "theory": "trains-demo", "examples": ["eastbound(t1)"]}
    ← {"ok": true, "n": 1, "n_covered": 1, "covered": [true]}

Operations: ``ping``, ``hello``, ``submit``, ``jobs``, ``status``,
``wait``, ``cancel``, ``query``, ``registry`` (actions ``list`` /
``versions`` / ``show`` / ``diff`` / ``promote``), ``gc`` (targets
``jobs`` / ``registry``), ``stats``, ``shutdown``.

**Hello and auth.**  ``hello`` is the optional handshake: it
authenticates the connection (when the server was started with
``--auth-token``, every other op except ``ping`` is rejected until a
hello carries the right token).  Whatever ``"transport"`` a hello asks
for, it is granted ``"json"`` and the connection stays on JSON-lines —
the fallback the hello contract has always promised a client whose
transport the server does not offer.

**Streaming queries.**  Every query runs one loop: ``"shards": k`` cuts
the batch into k contiguous spans evaluated in order on the theory's
engine (absent, ``null`` or ``0`` is one span, the plain case).  With
``"stream": true`` the server writes one response *per span* as it
completes (``"frame": "shard"`` with span-local ``covered``), then an
end-of-batch summary (``"frame": "end"`` with the merged result) — so
first results arrive after ~1/k of the batch work.  The merged answer is
bit-identical to the one-span answer.  If the client disconnects
mid-stream the server evaluates no further span.  ``shards`` must be a
non-negative integer and ``stream`` a boolean, or the request is a
``bad_request``.

Architecture
------------
:class:`Service` is the transport-free core — a request dict in, a
response dict out — so the protocol is unit-testable without sockets and
reusable behind any other transport.  :class:`ServiceServer` wraps it in
blocking send/receive loops, like every process of the paper's Fig. 5:
**one accept loop** hands each connection to **its own daemon thread**,
and that thread reads a request, runs the op and writes the answer — so
a ``wait`` that blocks for minutes, or a query that holds a CPU, occupies
only the connection that asked (an idle connection costs a parked
thread, ≈ 20 KiB).  Learning jobs run in the scheduler's own slot
threads, so slow jobs never block queries.
Every request takes the one path
``_serve_once`` → ``_run_op`` → :meth:`Service.handle`, which is where
deadlines, request ids, admission control, auth, metrics, spans and
error codes live; a streamed query differs only in pushing its shard
frames through ``ClientContext.emit`` on the way.
"""

from __future__ import annotations

import hmac
import json
import os
import selectors
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.logic import ParseError, parse_term
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.util.log import get_logger, log_context
from repro.service.errors import (
    BadRequest,
    Cancelled,
    DeadlineExceeded,
    FrameTooLarge,
    Overloaded,
    ServiceFault,
    ShuttingDown,
    Unauthenticated,
    error_response,
)
from repro.service.jobs import JobSpec
from repro.service.query import QueryEngine, QueryResult, ShardResult
from repro.service.registry import RegistryError, TheoryRegistry
from repro.service.scheduler import JobScheduler, SchedulerError

__all__ = ["Service", "ServiceServer", "ClientContext", "serve"]

_log = get_logger("repro.service")

#: refuse a request line (the protocol's one frame) above this size
#: (64 MiB) — a desynchronized or hostile peer must not make the server
#: allocate arbitrary buffers.
MAX_FRAME = 64 * 1024 * 1024


def stamp_request_id(request: dict) -> str:
    """Ensure the request carries an id; return it.

    Called by the transport the moment a request is parsed — every
    response and every structured log line about this request echoes the
    same id, so one grep correlates a client-visible failure with the
    server-side story.  Clients may supply their own ``request_id``
    (kept verbatim); anything else gets a fresh ``req-`` id.
    """
    rid = request.get("request_id")
    if not isinstance(rid, str) or not rid:
        rid = f"req-{os.urandom(6).hex()}"
        request["request_id"] = rid
    return rid


def deadline_of(request: dict) -> Optional[float]:
    """The request's absolute monotonic deadline, or None.

    The first call — :meth:`Service._dispatch`, on the thread that read
    the request and runs it, so nothing queues in between — turns a
    relative ``deadline_ms`` into the absolute ``_deadline`` that the
    rest of the request's life reads.
    """
    ms = request.get("deadline_ms")
    if "_deadline" not in request and ms is not None:
        if not isinstance(ms, (int, float)) or isinstance(ms, bool) or ms <= 0:
            raise BadRequest(f"deadline_ms must be a positive number, got {ms!r}")
        request["_deadline"] = time.monotonic() + ms / 1000.0
    return request.get("_deadline")


def _count_field(request: dict, field: str) -> Optional[int]:
    """``request[field]`` as a count: None when absent or null, else a
    non-negative int that is not a bool, or the request is a
    ``bad_request`` naming the field — before the op does any work."""
    value = request.get(field)
    if value is not None and (
        not isinstance(value, int) or isinstance(value, bool) or value < 0
    ):
        raise BadRequest(f"{field} must be a non-negative integer, got {value!r}")
    return value


@dataclass
class ClientContext:
    """Per-connection state threaded through :meth:`Service.handle`.

    ``client_id`` keys the per-client job quota (the peer address by
    default; a hello may override it with a self-reported name, which is
    fine — quotas are a fairness knob, not a security boundary; the
    security boundary is the token).
    """

    client_id: str = "local"
    authenticated: bool = False
    #: on a socket connection: pushes one shard frame of a streaming
    #: request to the client from the thread that evaluates it
    #: (:class:`Cancelled` once the client is gone).  None in-process:
    #: streams answer whole.
    emit: Optional[Callable[[dict], None]] = None


class Service:
    """Transport-free request handler bundling the three subsystems.

    Owns a :class:`JobScheduler` (learning), a :class:`TheoryRegistry`
    (artifacts) and a :class:`QueryEngine` (application).  All handlers
    are thread-safe: the scheduler and registry lock internally, and
    handler dispatch itself is stateless.

    ``auth_token`` gates every op except ``ping``/``hello`` behind a
    shared-secret hello.  ``max_jobs_per_client`` bounds each client's
    *active* (queued or running) jobs — over-quota submits are rejected
    with a friendly error instead of silently queueing forever.
    ``max_queue`` bounds the scheduler's queued-job depth (excess
    submits are shed with ``overloaded`` + ``retry_after``).
    ``fault_plan`` (chaos testing only) injects the deterministic faults
    of a :class:`~repro.fault.service.ServiceFaultPlan` into every layer.
    """

    def __init__(
        self,
        slots: int = 2,
        state_dir: Optional[str] = None,
        registry_dir: Optional[str] = None,
        auth_token: Optional[str] = None,
        max_jobs_per_client: int = 0,
        max_queue: int = 0,
        fault_plan=None,
        tracer=None,
    ):
        #: per-service metrics registry — one scrape surface per server,
        #: isolated across instances (tests spin up many).
        self.metrics = MetricsRegistry()
        self._meters: dict[str, tuple] = {}
        self._fanout = self.metrics.histogram(
            "repro_query_fanout_shards",
            "spans a query batch was evaluated in",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        #: request-span recorder; NULL_TRACER (no-op) unless serve was
        #: started with --trace-out.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fault_injector = None
        if fault_plan is not None:
            # The fault layer is loaded by chaos runs only.
            from repro.fault.plan import normalize_plan
            from repro.fault.service import ServiceFaultInjector

            plan = normalize_plan(fault_plan)
            self.fault_injector = ServiceFaultInjector(plan) if plan is not None else None
        self.registry = (
            TheoryRegistry(registry_dir, fault_injector=self.fault_injector)
            if registry_dir
            else None
        )
        self.scheduler = JobScheduler(
            slots=slots, state_dir=state_dir, registry=self.registry,
            max_queue=max_queue,
            fault_injector=self.fault_injector,
        )
        self.query_engine = QueryEngine(
            registry=self.registry, fault_injector=self.fault_injector
        )
        self.auth_token = auth_token
        self.max_jobs_per_client = max_jobs_per_client
        #: True once a graceful drain started: no new jobs are accepted.
        self.draining = False
        self._quota_lock = threading.Lock()
        self._client_jobs: dict[str, list[str]] = {}
        if state_dir:
            self.scheduler.recover_jobs()

    def close(self, drain: bool = False) -> None:
        self.scheduler.close(drain=drain)

    def drain(self) -> None:
        """Graceful-drain the job tier (blocking).

        Stops the scheduler without waiting for queued jobs: running
        preemptible jobs park at their next checkpoint (recoverable),
        running non-preemptible jobs finish, queued jobs stay queued on
        disk.  New submits are already rejected (``shutting_down``) the
        moment :attr:`draining` is set.
        """
        self.draining = True
        self.scheduler.close(drain=False)

    # -- dispatch ----------------------------------------------------------------

    def handle(self, request: dict, ctx: Optional[ClientContext] = None) -> dict:
        """Answer one request dict; never raises (errors become fields).

        Requests may carry ``"deadline_ms"`` (relative, stamped to an
        absolute monotonic ``"_deadline"`` by :func:`deadline_of`): work
        whose deadline passed is rejected up front with
        ``deadline_exceeded`` instead of run uselessly, and a query
        evaluated in several spans stops at the first span boundary
        after the deadline expired.
        """
        if ctx is None:
            # Direct (in-process) callers are implicitly trusted — the
            # token protects the socket boundary, not the library API.
            ctx = ClientContext(client_id="local", authenticated=True)
        op = request.get("op")
        op_name = op if isinstance(op, str) else "?"
        rid = request.get("request_id")
        t0 = time.perf_counter()
        with log_context(**({"request_id": rid} if isinstance(rid, str) else {})):
            with self.tracer.span(f"op:{op_name}", client=ctx.client_id):
                response = self._dispatch(request, ctx, op)
            dt = time.perf_counter() - t0
            self._account(op_name, response, dt, ctx)
        if isinstance(rid, str) and rid:
            # Echo the transport-stamped id so clients and logs correlate.
            response["request_id"] = rid
        return response

    def _dispatch(self, request: dict, ctx: ClientContext, op) -> dict:
        try:
            handler = getattr(self, f"_op_{op}", None)
            if not isinstance(op, str) or handler is None:
                raise BadRequest(f"unknown op {op!r}")
            if (
                self.auth_token is not None
                and not ctx.authenticated
                and op not in ("ping", "hello")
            ):
                raise Unauthenticated()
            deadline = deadline_of(request)
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded(
                    f"deadline expired before the {op!r} op ran"
                )
            if self.draining and op == "submit":
                raise ShuttingDown()
            return {"ok": True, **handler(request, ctx)}
        except ServiceFault as exc:
            return error_response(exc)
        except (SchedulerError, RegistryError, ParseError, ValueError, KeyError, TypeError) as exc:
            return error_response(exc)

    def _account(self, op: str, response: dict, dt: float, ctx: ClientContext) -> None:
        """Count, time, and log one handled request (never raises)."""
        try:
            counter, timers = self._meters.get(op) or self._meter(op)
            counter.inc()
            for timer in timers:
                timer.observe(dt)
            if not response.get("ok"):
                code = response.get("code", "error")
                self.metrics.counter(
                    "repro_request_errors_total", "error responses, by code", code=code
                ).inc()
                _log.warning(
                    "request_failed", op=op, code=code,
                    duration_ms=round(dt * 1000, 3), client=ctx.client_id,
                )
            else:
                _log.debug(
                    "request", op=op, duration_ms=round(dt * 1000, 3),
                    client=ctx.client_id,
                )
        except Exception:  # pragma: no cover - accounting must never fail a request
            pass

    def _meter(self, op: str) -> tuple:
        """An op's request counter and latency histograms, looked up once
        per op: every request passes through here."""
        hist = self.metrics.histogram
        timers = [hist("repro_request_latency_seconds", "request handling latency", op=op)]
        if op == "query":
            timers.append(hist("repro_query_latency_seconds", "query op latency end to end"))
        self._meters[op] = meters = (
            self.metrics.counter("repro_requests_total", "requests handled, by op", op=op),
            timers,
        )
        return meters

    # -- operations --------------------------------------------------------------

    def _op_ping(self, request: dict, ctx: ClientContext) -> dict:
        return {"pong": True}

    def _op_hello(self, request: dict, ctx: ClientContext) -> dict:
        if self.auth_token is not None:
            token = request.get("token")
            if not isinstance(token, str) or not hmac.compare_digest(
                token.encode("utf-8"), self.auth_token.encode("utf-8")
            ):
                raise Unauthenticated("bad or missing token")
        ctx.authenticated = True
        if isinstance(request.get("client"), str) and request["client"]:
            ctx.client_id = request["client"]
        return {
            "server": "repro-service",
            "transports": ["json"],
            "transport": "json",
            "auth": self.auth_token is not None,
            "client": ctx.client_id,
        }

    def _op_submit(self, request: dict, ctx: ClientContext) -> dict:
        spec = JobSpec.from_dict(request["spec"])
        if spec.register_as and self.registry is None:
            raise ValueError("register_as needs the server started with a registry dir")
        idem = request.get("idempotency_key")
        if idem is not None and (not isinstance(idem, str) or not idem):
            raise BadRequest("idempotency_key must be a non-empty string")
        if idem is not None:
            # A retried submit whose first response was lost: return the
            # job it already created — before quota, which it consumed
            # the first time around.
            existing = self.scheduler.lookup_idempotent(idem)
            if existing is not None:
                return {"job": existing, "deduplicated": True}
        if not self.max_jobs_per_client:
            return {"job": self.scheduler.submit(spec, idempotency_key=idem)}
        with self._quota_lock:
            active = [
                j
                for j in self._client_jobs.get(ctx.client_id, [])
                if self.scheduler.status(j)["state"] in ("queued", "running")
            ]
            if len(active) >= self.max_jobs_per_client:
                raise ValueError(
                    f"quota exceeded: client {ctx.client_id!r} already has "
                    f"{len(active)} active job(s) of {self.max_jobs_per_client} "
                    "allowed; wait for one to finish or cancel it"
                )
            job = self.scheduler.submit(spec, idempotency_key=idem)
            if job not in active:
                self._client_jobs[ctx.client_id] = active + [job]
            return {"job": job}

    def _op_jobs(self, request: dict, ctx: ClientContext) -> dict:
        return {"jobs": self.scheduler.jobs()}

    def _op_status(self, request: dict, ctx: ClientContext) -> dict:
        return self.scheduler.status(request["job"])

    def _op_wait(self, request: dict, ctx: ClientContext) -> dict:
        return self.scheduler.wait(request["job"], timeout=request.get("timeout"))

    def _op_cancel(self, request: dict, ctx: ClientContext) -> dict:
        return {"cancelled": self.scheduler.cancel(request["job"])}

    # -- queries -----------------------------------------------------------------

    def query_result(
        self,
        name: str,
        examples,
        version: Optional[int] = None,
        shards: Optional[int] = None,
        deadline: Optional[float] = None,
        on_frame: Optional[Callable[[ShardResult], None]] = None,
    ) -> QueryResult:
        """One batched query over already-parsed example terms.

        ``shards=k`` evaluates the batch in k spans, one after another on
        the theory's engine: the ``deadline`` (absolute monotonic) is
        checked before each, and other requests against the theory get
        their turn in between.  With ``on_frame`` the batch is streamed —
        every span's frame is handed over as soon as it is evaluated; an
        ``on_frame`` that raises (the client hung up) stops the batch.
        """
        if self.registry is None:
            raise ValueError("query needs the server started with a registry dir")
        result = self.query_engine.query(
            name, examples, version=version, shards=shards, deadline=deadline,
            on_frame=on_frame,
        )
        self._fanout.observe(result.shards)
        return result

    def _op_query(self, request: dict, ctx: ClientContext) -> dict:
        shards = _count_field(request, "shards")
        stream = request.get("stream")
        if stream is not None and not isinstance(stream, bool):
            raise BadRequest(f"stream must be a boolean, got {stream!r}")
        items = request["examples"]
        if not isinstance(items, (list, tuple)):
            raise BadRequest(
                f"examples must be a list of strings, got {type(items).__name__}"
            )
        examples = []
        for i, e in enumerate(items):
            if not isinstance(e, str):
                raise BadRequest(
                    f"examples[{i}] must be a string, got {type(e).__name__}"
                )
            examples.append(parse_term(e))
        emit = ctx.emit if stream else None
        result = self.query_result(
            request["theory"],
            examples,
            version=request.get("version"),
            shards=shards,
            deadline=request.get("_deadline"),
            on_frame=emit and (lambda frame: emit(_answer(frame))),
        )
        out = _answer(result)
        if emit is not None:
            out["frame"] = "end"
        return out

    # -- registry / retention ----------------------------------------------------

    def _op_registry(self, request: dict, ctx: ClientContext) -> dict:
        if self.registry is None:
            raise ValueError("server started without a registry dir")
        reg = self.registry
        action = request.get("action", "list")
        if action == "list":
            return {
                "theories": [
                    {
                        "name": n,
                        "versions": reg.versions(n),
                        "promoted": reg.promoted_version(n),
                    }
                    for n in reg.names()
                ]
            }
        if action == "versions":
            return {"versions": reg.versions(request["name"])}
        if action == "show":
            record = reg.get(request["name"], request.get("version"))
            return {"record": record.to_dict()}
        if action == "diff":
            diff = reg.diff(request["name"], request["old"], request["new"])
            return {k: [str(c) for c in v] for k, v in diff.items()}
        if action == "promote":
            return {"promoted": reg.promote(request["name"], request["version"])}
        raise ValueError(f"unknown registry action {action!r}")

    def _op_gc(self, request: dict, ctx: ClientContext) -> dict:
        keep = _count_field(request, "keep")
        target = request.get("target", "jobs")
        if target == "jobs":
            removed = self.scheduler.gc(keep=0 if keep is None else keep)
            return {"target": "jobs", "removed": removed}
        if target == "registry":
            if self.registry is None:
                raise ValueError("server started without a registry dir")
            name = request["name"]
            removed = self.registry.gc(name, keep=1 if keep is None else keep)
            self.query_engine.forget(name, removed)
            return {"target": "registry", "removed": removed}
        raise ValueError(f"unknown gc target {target!r}")

    def _jobs_by_state(self) -> dict[str, int]:
        by_state: dict[str, int] = {}
        for j in self.scheduler.jobs():
            by_state[j["state"]] = by_state.get(j["state"], 0) + 1
        return by_state

    def _op_stats(self, request: dict, ctx: ClientContext) -> dict:
        out = {
            "slots": self.scheduler.slots,
            "jobs": self._jobs_by_state(),
            "query": self.query_engine.stats(),
            "resilience": {
                "draining": self.draining,
                **self.scheduler.resilience_stats(),
            },
            "metrics": self.metrics_snapshot(),
        }
        if self.fault_injector is not None:
            out["faults"] = self.fault_injector.snapshot()
        return out

    def _op_metrics(self, request: dict, ctx: ClientContext) -> dict:
        return {"metrics": self.metrics_snapshot()}

    def refresh_gauges(self) -> None:
        """Point-in-time gauges pulled from the subsystems at scrape time.

        Counters and histograms are pushed on the hot paths; queue depth,
        slot occupancy, cache hit rates and resilience tallies live in
        the scheduler / query engine and are sampled here so one scrape
        sees one consistent moment.
        """
        by_state = self._jobs_by_state()
        g = self.metrics.gauge
        g("repro_scheduler_slots", "scheduler slot count").set(self.scheduler.slots)
        g("repro_scheduler_slots_busy", "slots running a job").set(
            by_state.get("running", 0)
        )
        g("repro_jobs_queued", "jobs waiting for a slot").set(by_state.get("queued", 0))
        for state, n in sorted(by_state.items()):
            g("repro_jobs", "jobs by state", state=state).set(n)
        g("repro_draining", "1 while a graceful drain is in progress").set(
            int(self.draining)
        )
        res = self.scheduler.resilience_stats()
        g("repro_persist_errors", "durable-write failures").set(res["persist_errors"])
        g("repro_slot_crashes", "scheduler slot crashes").set(res["slot_crashes"])
        g("repro_quarantined_records", "records quarantined on recovery").set(
            len(res["quarantined"])
        )
        for k, v in self.query_engine.stats().items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                g(f"repro_query_{k}", "query engine counter (see stats op)").set(v)

    def metrics_snapshot(self) -> dict:
        """Plain-dict metrics view (the ``metrics`` op / stats section)."""
        self.refresh_gauges()
        return self.metrics.snapshot()

    def render_metrics(self) -> str:
        """Prometheus text exposition for the --metrics-port endpoint."""
        self.refresh_gauges()
        return self.metrics.render_prometheus()

    def _op_shutdown(self, request: dict, ctx: ClientContext) -> dict:
        # The transport layer watches for this marker and stops accepting.
        return {"shutdown": True}


def _answer(part) -> dict:
    """Protocol fields of a shard frame or of a merged batch result."""
    out = {"n": part.n, "ops": part.ops, "covered": part.decisions()}
    if isinstance(part, ShardResult):
        out.update(ok=True, frame="shard", shard=part.shard, lo=part.lo)
    else:
        out.update(n_covered=part.n_covered, shards=part.shards)
    return out


class ServiceServer:
    """Blocking front end: one accept loop, one daemon thread per connection.

    The accept loop (:meth:`run_until_shutdown`) multiplexes the
    listener, the optional metrics listener and a wake ``socketpair``
    over one selector; everything a connection needs — reading, running
    the op, answering — happens on that connection's own thread.  Use
    :func:`serve` for the blocking entry point; tests reach the bound
    port through the ``ready`` callback.
    """

    def __init__(
        self,
        service: Service,
        max_inflight: int = 0,
        metrics_port: Optional[int] = None,
    ):
        self.service = service
        self.port: Optional[int] = None
        #: admission bound on concurrently executing ops (0 = unbounded);
        #: excess requests are shed with ``overloaded`` + ``retry_after``.
        self.max_inflight = max_inflight
        #: when not None, a plain-HTTP Prometheus text exposition endpoint
        #: is bound here (0 = ephemeral; the bound port lands in
        #: :attr:`metrics_bound_port`).
        self.metrics_port = metrics_port
        self.metrics_bound_port: Optional[int] = None
        self._lock = threading.Lock()  # guards _inflight and _conns
        self._inflight = 0
        self._conns: set[socket.socket] = set()
        self._listener: Optional[socket.socket] = None  # None again once draining
        self._selector = selectors.DefaultSelector()
        # How connection threads, other threads and the SIGTERM handler
        # reach the accept loop: b"s" asks it to stop, b"d" to drain first.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ)

    def start(self, host: str, port: int) -> None:
        self._listener = self._listen(host, port, self._serve_connection)
        self.port = self._listener.getsockname()[1]
        if self.metrics_port is not None:
            metrics = self._listen(host, self.metrics_port, self._serve_metrics)
            self.metrics_bound_port = metrics.getsockname()[1]
            _log.info(
                "metrics_listening", host=host, port=self.metrics_bound_port
            )

    def _listen(self, host: str, port: int, serve: Callable) -> socket.socket:
        """Bind a listener whose connections ``serve(conn)`` handles."""
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        listener = socket.create_server((host, port), family=family, backlog=128)
        listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, serve)
        return listener

    def _wake(self, ask: bytes) -> None:
        try:
            self._wake_w.send(ask)
        except OSError:
            pass  # already closed, or a full pipe: the loop is waking anyway

    def initiate_shutdown(self) -> None:
        """Stop accepting and unwind :meth:`run_until_shutdown` (thread-safe)."""
        self._wake(b"s")

    def initiate_drain(self) -> None:
        """Begin a graceful drain (thread- and signal-safe).

        The SIGTERM handler: new submits are rejected immediately
        (``shutting_down``), the listener closes, in-flight jobs finish
        or checkpoint-park, then the server unwinds.
        """
        self.service.draining = True
        self._wake(b"d")

    def run_until_shutdown(self) -> None:
        """The accept loop; returns once a shutdown (or a drain) was asked for."""
        while True:
            for key, _ in self._selector.select():
                if key.data is not None:  # a listener, with what serves its connections
                    self._accept(key.fileobj, key.data)
                    continue
                asked = self._wake_r.recv(64)
                if b"s" in asked:
                    return
                if self._listener is not None:
                    # Graceful drain: stop accepting connections, let the
                    # job tier finish or checkpoint-park its in-flight work
                    # (Service.drain blocks, so it gets a thread: existing
                    # connections and the metrics endpoint keep getting
                    # answers), then take the normal shutdown path.
                    self._selector.unregister(self._listener)
                    self._listener.close()
                    self._listener = None
                    threading.Thread(
                        target=self._drain, name="repro-svc-drain", daemon=True
                    ).start()

    def _drain(self) -> None:
        try:
            self.service.drain()
        finally:
            self.initiate_shutdown()

    def close(self) -> None:
        """Close the listeners and hang up on every open connection.

        A connection thread parked in a read sees EOF and exits; one that
        is inside an op (a ``wait`` can block for minutes) finds its
        socket shut when it answers and exits then — nobody joins it.
        """
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        self._wake_w.close()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its thread closed it first

    def _accept(self, listener: socket.socket, serve: Callable) -> None:
        try:
            conn, _ = listener.accept()
        except BlockingIOError:
            return  # the peer gave up between select and accept
        except OSError as exc:
            # Out of descriptors, most likely: give open connections a
            # moment to finish instead of spinning on the ready listener.
            _log.warning("accept_failed", error=str(exc))
            time.sleep(0.05)
            return
        conn.setblocking(True)
        # Frames of a stream are small writes in a row; Nagle would hold
        # each one back ≈ 40 ms for the previous one's ACK.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self._conns.add(conn)
        try:
            threading.Thread(
                target=self._connection, args=(conn, serve),
                name="repro-svc-conn", daemon=True,
            ).start()
        except RuntimeError as exc:  # the process cannot start another thread
            _log.warning("accept_failed", error=str(exc))
            self._forget(conn)

    def _forget(self, conn: socket.socket) -> None:
        conn.close()
        with self._lock:
            self._conns.discard(conn)

    def _connection(self, conn: socket.socket, serve: Callable) -> None:
        """Thread body of one accepted connection."""
        try:
            serve(conn)
        except OSError:
            pass  # the client went away, or close() hung up: nothing to answer
        finally:
            self._forget(conn)

    def _serve_metrics(self, conn: socket.socket) -> None:
        """Answer one plain-HTTP GET with the Prometheus text exposition.

        Deliberately minimal (stdlib-only, HTTP/1.0, connection-per-
        scrape): enough for ``curl`` and any Prometheus scraper, with no
        routing — every path serves the metrics page.
        """
        deadline = time.monotonic() + 5.0
        head = b""
        while b"\r\n\r\n" not in head:
            conn.settimeout(max(deadline - time.monotonic(), 0.001))
            chunk = conn.recv(65536)
            if not chunk or len(head) > 65536:
                return
            head += chunk
        body = self.service.render_metrics().encode("utf-8")
        conn.settimeout(5.0)
        conn.sendall(
            b"HTTP/1.0 200 OK\r\n"
            b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body
        )

    # -- per-connection protocol loop --------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        ctx = ClientContext(client_id=conn.getpeername()[0])
        ctx.emit = partial(self._emit, conn)
        with conn.makefile("rb") as rfile:
            while self._serve_once(conn, rfile, ctx):
                pass

    def _serve_once(self, conn: socket.socket, rfile, ctx: ClientContext) -> bool:
        """Read, stamp, dispatch and answer one request; False closes.

        The one request lifecycle of the front door: a JSON line becomes
        the request dict (:meth:`_read_request`) and the response dict a
        JSON line (:meth:`_send`).
        """
        try:
            request = self._read_request(rfile)
            if request is None:
                return False
            if not isinstance(request, dict):
                raise BadRequest("bad request: request must be a JSON object")
        except ServiceFault as exc:
            self._send(conn, error_response(exc))
            # Keep serving after a bad request, whose line ended where it
            # should; what follows an oversized line cannot be trusted.
            return isinstance(exc, BadRequest)
        stamp_request_id(request)
        reset = self._injected_reset(request.get("op"))
        if reset is not None:
            if reset.when == "after":
                # The nasty case: the work happens, the response is lost.
                self._run_op(request, ctx)
            self._abort_connection(conn)
            return False
        response = self._run_op(request, ctx)
        if response.get("code") == Cancelled.code:
            return False  # the client hung up mid-stream
        self._send(conn, response)
        if response.get("shutdown"):
            self.initiate_shutdown()
            return False
        return True

    def _emit(self, conn: socket.socket, frame: dict) -> None:
        """``ctx.emit``: send one shard frame unless the client hung up.

        A look at the socket before each frame is the disconnect watch:
        EOF (or a reset) there means nobody is listening, so
        :class:`Cancelled` stops the stream and its remaining spans are
        never evaluated (what the streaming tests pin).  Bytes waiting
        instead are a pipelined request; they stay where they are.
        """
        try:
            try:
                gone = not conn.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
            except BlockingIOError:
                gone = False  # nothing to read: the client is there, and quiet
            if not gone:
                return self._send(conn, frame)
        except OSError:
            pass
        raise Cancelled("query cancelled mid-stream: the client hung up")

    # -- plumbing ----------------------------------------------------------------

    def _injected_reset(self, op):
        """The ConnReset to apply to this request, else None (chaos only)."""
        injector = self.service.fault_injector
        if injector is None:
            return None
        return injector.on_request(op if isinstance(op, str) else None)

    @staticmethod
    def _abort_connection(conn: socket.socket) -> None:
        """Make the coming close a hard TCP reset (RST), not a clean FIN.

        SO_LINGER with a zero timeout discards untransmitted data and
        sends RST on close, so an injected "connection reset" looks to
        the client exactly like a mid-flight network failure
        (``ConnectionResetError``), not like an orderly shutdown.
        """
        try:
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:  # pragma: no cover - platform without SO_LINGER
            pass

    def _run_op(self, request: dict, ctx: ClientContext) -> dict:
        with self._lock:
            inflight = self._inflight
            shed = bool(self.max_inflight) and inflight >= self.max_inflight
            if not shed:
                self._inflight += 1
        if shed:
            # Load shedding: answering "overloaded" costs microseconds;
            # executing the op would hold a CPU or a scheduler slot.
            # Clients honour retry_after and back off.
            self.service.metrics.counter(
                "repro_requests_shed_total", "requests shed by admission control"
            ).inc()
            resp = error_response(
                Overloaded(
                    f"{inflight} requests in flight (cap {self.max_inflight})",
                    retry_after=0.05,
                )
            )
            resp["request_id"] = request["request_id"]  # stamped by _serve_once
            return resp
        try:
            return self.service.handle(request, ctx)
        finally:
            with self._lock:
                self._inflight -= 1

    @staticmethod
    def _read_request(rfile):
        """The next request on this connection, decoded; None at EOF."""
        # Large query batches are legitimate, so a line may be long.
        line = b"\n"
        while line.isspace():  # blank lines are skipped
            line = rfile.readline(MAX_FRAME + 1)
        if len(line) > MAX_FRAME and not line.endswith(b"\n"):
            # Read the rest of the line away before answering: closing on
            # unread input would reset the connection under the answer.
            while line and not line.endswith(b"\n"):
                line = rfile.readline(65536)
            raise FrameTooLarge(
                f"request line exceeds the {MAX_FRAME}-byte cap"
            )
        if not line:
            return None
        try:
            return json.loads(line)
        except (ValueError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder's stack.
            raise BadRequest(f"bad request: {exc}") from None

    @staticmethod
    def _send(conn: socket.socket, response: dict) -> None:
        conn.sendall((json.dumps(response) + "\n").encode("utf-8"))


def serve(
    host: str = "127.0.0.1",
    port: int = 7341,
    slots: int = 2,
    state_dir: Optional[str] = None,
    registry_dir: Optional[str] = None,
    ready=None,
    auth_token: Optional[str] = None,
    max_jobs_per_client: int = 0,
    max_queue: int = 0,
    max_inflight: int = 0,
    fault_plan=None,
    metrics_port: Optional[int] = None,
    tracer=None,
) -> None:
    """Run the service until a ``shutdown`` request (blocking).

    ``port=0`` binds an ephemeral port.  ``ready``, when given, is
    called with the listening :class:`ServiceServer` once the socket is
    bound (tests use it to learn the port; the CLI prints it).
    ``metrics_port`` additionally binds a plain-HTTP Prometheus text
    exposition endpoint (``curl http://host:metrics_port/metrics``);
    ``tracer`` (a :class:`repro.obs.Tracer`) records one span per
    handled request, which ``repro serve --trace-out`` streams to JSONL.

    SIGTERM triggers a graceful drain (when this runs in the main
    thread, where signal handlers can be installed): new submits are
    rejected, in-flight jobs finish or checkpoint-park, then the server
    exits — so orchestrators that SIGTERM-then-wait never lose work.
    """
    service = Service(
        slots=slots, state_dir=state_dir, registry_dir=registry_dir,
        auth_token=auth_token,
        max_jobs_per_client=max_jobs_per_client, max_queue=max_queue,
        fault_plan=fault_plan, tracer=tracer,
    )
    server = ServiceServer(
        service, max_inflight=max_inflight, metrics_port=metrics_port
    )
    previous = None
    try:
        server.start(host, port)
        try:
            previous = signal.signal(
                signal.SIGTERM, lambda signum, frame: server.initiate_drain()
            )
        except ValueError:
            pass  # not the main thread: drain by calling initiate_drain()
        _log.info("serving", host=host, port=server.port, slots=slots)
        if ready is not None:
            ready(server)
        server.run_until_shutdown()
        _log.info("stopped", port=server.port)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        server.close()
        service.close(drain=False)
        service.tracer.close()
