"""The service front door: an async socket tier (stdlib only).

Protocol
--------
The default transport is JSON-lines — one request per line, one response
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

**Hello, auth and transport negotiation.**  ``hello`` is the optional
handshake: it authenticates the connection (when the server was started
with ``--auth-token``, every other op except ``ping`` is rejected until
a hello carries the right token) and negotiates the transport.  A client
asking for ``"transport": "wire"`` gets the hello response on JSON-lines
and then the connection switches to the compact binary framing of
:mod:`repro.service.wiremsg` (4-byte length prefix + wire-codec
message); servers without the hello op reject it, so clients fall back
to JSON-lines automatically.  A transport is a codec and nothing else —
bytes to request dict, response dict to bytes: a native ``WireQuery``
*is* the ``query`` request with its examples already parsed, and is
answered in kind, ``covered`` as a packed bitset (terms in, bitset out).

**Streaming queries.**  ``{"op": "query", ..., "stream": true,
"shards": k}`` cuts the batch into k contiguous spans, evaluates them in
order on the theory's engine and streams one response *per span* as it
completes (``"frame": "shard"`` with span-local ``covered``), then an
end-of-batch summary (``"frame": "end"`` with the merged result) — so
first results arrive after ~1/k of the batch work.  The merged answer is
bit-identical to the one-span path.  If the client disconnects
mid-stream the server evaluates no further span.

Architecture
------------
:class:`Service` is the transport-free core — a request dict in, a
response dict out — so the protocol is unit-testable without sockets and
reusable behind any other transport.  :class:`ServiceServer` wraps it in
an **asyncio event loop**: one task per connection (thousands of idle
connections cost no threads), with blocking operations (``wait`` can
legitimately block for minutes; queries hold a CPU) dispatched to a
bounded thread pool so the loop itself never stalls.  Learning jobs run
in the scheduler's own slot threads, so slow jobs never block queries.
Every request of either transport takes the one path
``_serve_once`` → ``_run_op`` → :meth:`Service.handle`, which is where
deadlines, request ids, admission control, auth, metrics, spans and
error codes live; a streamed query differs only in pushing its shard
frames through ``ClientContext.emit`` on the way.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.fault.service import ServiceFaultInjector, normalize_service_plan
from repro.logic import ParseError, parse_term
from repro.logic.terms import Term
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.parallel import wire
from repro.util.log import get_logger, log_context
from repro.service import wiremsg
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
from repro.service.query import QueryEngine, QueryResult, QueryStream, ShardResult
from repro.service.registry import RegistryError, TheoryRegistry
from repro.service.scheduler import JobScheduler, SchedulerError

__all__ = ["Service", "ServiceServer", "ClientContext", "serve"]

_log = get_logger("repro.service")


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


def stamp_deadline(request: dict) -> None:
    """Convert a valid relative ``deadline_ms`` to absolute ``_deadline``.

    Called by the transport the moment a request is parsed, so time a
    request spends queued behind the op executor counts against its own
    deadline.  Invalid values are left for :func:`deadline_of` to reject
    inside the normal error path.
    """
    ms = request.get("deadline_ms")
    if isinstance(ms, (int, float)) and not isinstance(ms, bool) and ms > 0:
        request["_deadline"] = time.monotonic() + ms / 1000.0


def deadline_of(request: dict) -> Optional[float]:
    """The request's absolute monotonic deadline, or None.

    Stamps direct (in-process) requests that skipped the transport.
    """
    ms = request.get("deadline_ms")
    if "_deadline" not in request and ms is not None:
        stamp_deadline(request)
        if "_deadline" not in request:
            raise BadRequest(f"deadline_ms must be a positive number, got {ms!r}")
    return request.get("_deadline")


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
    transport: str = "json"
    #: bytes read ahead of the current parse point (pipelined requests
    #: surfaced by the mid-stream disconnect watch).
    pushback: bytes = b""
    #: while a socket transport serves a streaming request: pushes one
    #: shard frame to the client from the op's thread (:class:`Cancelled`
    #: once the client is gone).  None in-process: streams answer whole.
    emit: Optional[Callable[[dict], None]] = None
    #: the stream that request drains; the transport cancels it on hang-up.
    stream: Optional[QueryStream] = None


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
        chunk_epochs: int = 1,
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
        #: request-span recorder; NULL_TRACER (no-op) unless serve was
        #: started with --trace-out.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        plan = normalize_service_plan(fault_plan)
        self.fault_injector = ServiceFaultInjector(plan) if plan is not None else None
        self.registry = (
            TheoryRegistry(registry_dir, fault_injector=self.fault_injector)
            if registry_dir
            else None
        )
        self.scheduler = JobScheduler(
            slots=slots, state_dir=state_dir, registry=self.registry,
            chunk_epochs=chunk_epochs, max_queue=max_queue,
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
        if self.registry is not None:
            # Same hygiene as job recovery: quarantine (never crash on)
            # corrupt certificate artifacts left by torn writes.
            self.registry.recover()

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
        absolute monotonic ``"_deadline"`` at transport read time so
        executor queueing counts against it): work whose deadline passed
        is rejected up front with ``deadline_exceeded`` instead of run
        uselessly, and a query evaluated in several spans stops at the
        first span boundary after the deadline expired.
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
        per op: every request of every transport passes through here."""
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
            if token != self.auth_token:
                raise ValueError("bad or missing token")
        ctx.authenticated = True
        if isinstance(request.get("client"), str) and request["client"]:
            ctx.client_id = request["client"]
        requested = request.get("transport", "json")
        granted = requested if requested in wiremsg.TRANSPORTS else "json"
        return {
            "server": "repro-service",
            "transports": list(wiremsg.TRANSPORTS),
            "transport": granted,
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
        micro_batch: int = 1024,
        shards=None,
        deadline: Optional[float] = None,
        on_open: Optional[Callable[[QueryStream], None]] = None,
        on_frame: Optional[Callable[[ShardResult], None]] = None,
    ) -> QueryResult:
        """One batched query over already-parsed example terms.

        ``shards=k`` evaluates the batch in k spans, one after another on
        the theory's engine: the ``deadline`` (absolute monotonic) is
        checked and a cancel honoured before each, and other requests
        against the theory get their turn in between.  With ``on_frame``
        the batch is streamed — every span's frame is handed over as
        soon as it is evaluated, and ``on_open`` gets the stream first so
        that its owner can cancel it.
        """
        if self.registry is None:
            raise ValueError("query needs the server started with a registry dir")
        spans = int(shards or 0)
        if on_frame is None and spans <= 1:
            result = self.query_engine.query(
                name, examples, version=version,
                micro_batch=micro_batch or 1024, deadline=deadline,
            )
        else:
            stream = self.query_engine.query_stream(
                name, examples, version=version, micro_batch=micro_batch or 1024,
                shards=max(spans, 1), deadline=deadline,
            )
            result = self._drain(stream, on_open, on_frame)
        self.metrics.histogram(
            "repro_query_fanout_shards",
            "spans a query batch was evaluated in",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        ).observe(result.shards)
        return result

    @staticmethod
    def _drain(stream: QueryStream, on_open, on_frame) -> QueryResult:
        """Consume ``stream`` in span order; an error stops it for good."""
        try:
            if on_open is not None:
                on_open(stream)
            for frame in stream.frames():
                if on_frame is not None:
                    on_frame(frame)
        except BaseException:
            # A passed deadline, an injected engine-lease failure, a client
            # that hung up: never partial results, no further span.
            stream.cancel()
            raise
        if not stream.done:
            raise Cancelled("query cancelled mid-stream: the client hung up")
        return stream.result()

    def _op_query(self, request: dict, ctx: ClientContext) -> dict:
        items = request["examples"]
        # Terms in, bitset out: a native wire query arrives parsed and is
        # answered packed; strings are answered with a list of booleans.
        packed = bool(items) and isinstance(items[0], Term)
        examples = [e if isinstance(e, Term) else parse_term(e) for e in items]
        streaming = {}
        if request.get("stream") and ctx.emit is not None:
            streaming = dict(
                on_open=lambda stream: setattr(ctx, "stream", stream),
                on_frame=lambda frame: ctx.emit(_answer(frame, packed)),
            )
        result = self.query_result(
            request["theory"],
            examples,
            version=request.get("version"),
            micro_batch=int(request.get("micro_batch") or 1024),
            shards=request.get("shards"),
            deadline=request.get("_deadline"),
            **streaming,
        )
        out = _answer(result, packed)
        if streaming:
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
            out = {"record": record.to_dict()}
            try:
                cert = reg.get_certificate(request["name"], request.get("version"))
            except Exception as exc:
                # A damaged certificate never blocks serving the theory
                # (the exact record is the artifact of record).
                out["certificate_error"] = str(exc)
            else:
                if cert is not None:
                    out["certificate"] = cert.to_dict()
            return out
        if action == "diff":
            diff = reg.diff(request["name"], request["old"], request["new"])
            return {k: [str(c) for c in v] for k, v in diff.items()}
        if action == "promote":
            return {"promoted": reg.promote(request["name"], request["version"])}
        raise ValueError(f"unknown registry action {action!r}")

    def _op_gc(self, request: dict, ctx: ClientContext) -> dict:
        target = request.get("target", "jobs")
        if target == "jobs":
            removed = self.scheduler.gc(keep=int(request.get("keep", 0)))
            return {"target": "jobs", "removed": removed}
        if target == "registry":
            if self.registry is None:
                raise ValueError("server started without a registry dir")
            removed = self.registry.gc(
                request["name"], keep=int(request.get("keep", 1))
            )
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
                "registry_quarantined": list(
                    self.registry.quarantined if self.registry is not None else ()
                ),
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


def _answer(part, packed: bool) -> dict:
    """Protocol fields of a shard frame or of a merged batch result."""
    out = {
        "n": part.n,
        "ops": part.ops,
        "covered": part.covered if packed else part.decisions(),
    }
    if isinstance(part, ShardResult):
        out.update(ok=True, frame="shard", shard=part.shard, lo=part.lo)
    else:
        out.update(n_covered=part.n_covered, shards=part.shards)
    return out


class ServiceServer:
    """Asyncio front end multiplexing many connections over one loop.

    Connections cost one task each, not one thread; blocking service
    operations run on ``self._ops`` (sized generously because ``wait``
    parks a worker for the duration of a learning job).  Use
    :func:`serve` for the blocking entry point; tests reach the bound
    port through the ``ready`` callback.
    """

    #: executor headroom beyond scheduler slots: concurrent waits + queries.
    OPS_WORKERS = 32

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
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self._inflight = 0  # loop-thread only
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._drain: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ops = ThreadPoolExecutor(
            max_workers=max(self.OPS_WORKERS, service.scheduler.slots * 4),
            thread_name_prefix="repro-svc-op",
        )

    async def start(self, host: str, port: int) -> None:
        self._shutdown = asyncio.Event()
        self._drain = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        # The reader limit bounds one JSON line; large query batches are
        # legitimate, so allow what the wire framing allows.
        self._server = await asyncio.start_server(
            self._on_client, host, port, limit=wiremsg.MAX_FRAME
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._on_metrics_client, host, self.metrics_port
            )
            self.metrics_bound_port = self._metrics_server.sockets[0].getsockname()[1]
            _log.info(
                "metrics_listening", host=host, port=self.metrics_bound_port
            )

    def initiate_shutdown(self) -> None:
        """Stop accepting and unwind :meth:`run_until_shutdown` (loop-thread)."""
        if self._shutdown is not None:
            self._shutdown.set()

    def initiate_drain(self) -> None:
        """Begin a graceful drain (thread- and signal-safe).

        The SIGTERM handler: new submits are rejected immediately
        (``shutting_down``), the listener closes, in-flight jobs finish
        or checkpoint-park, then the server unwinds.
        """
        self.service.draining = True
        if self._loop is not None and self._drain is not None:
            self._loop.call_soon_threadsafe(self._drain.set)

    async def run_until_shutdown(self) -> None:
        shut = asyncio.ensure_future(self._shutdown.wait())
        drain = asyncio.ensure_future(self._drain.wait())
        try:
            await asyncio.wait({shut, drain}, return_when=asyncio.FIRST_COMPLETED)
            if self._drain.is_set() and not self._shutdown.is_set():
                # Graceful drain: stop accepting connections, let the job
                # tier finish or checkpoint-park its in-flight work
                # (Service.drain blocks in a worker thread, so existing
                # connections keep getting status/stats answers), then
                # fall through to the normal shutdown path.
                self._server.close()
                await self._server.wait_closed()
                await asyncio.get_running_loop().run_in_executor(
                    None, self.service.drain
                )
                self._shutdown.set()
            await self._shutdown.wait()
        finally:
            for t in (shut, drain):
                if not t.done():
                    t.cancel()
                    try:
                        await t
                    except asyncio.CancelledError:
                        pass
        self._server.close()
        await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        # Blocked waits are unstuck by Service.close cancelling their jobs
        # (the caller's `finally`), so don't join the worker threads here.
        self._ops.shutdown(wait=False, cancel_futures=True)

    async def _on_metrics_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one plain-HTTP GET with the Prometheus text exposition.

        Deliberately minimal (stdlib-only, HTTP/1.0, connection-per-
        scrape): enough for ``curl`` and any Prometheus scraper, with no
        routing — every path serves the metrics page.
        """
        try:
            try:
                await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5.0)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError):
                return
            body = (
                await asyncio.get_running_loop().run_in_executor(
                    self._ops, self.service.render_metrics
                )
            ).encode("utf-8")
            writer.write(
                b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body
            )
            await writer.drain()
        except Exception:
            pass  # a failed scrape must never disturb the serving loop
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- per-connection protocol loop --------------------------------------------

    async def _on_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        ctx = ClientContext(client_id=peer[0] if peer else "unknown")
        try:
            while not self._shutdown.is_set():
                if not await self._serve_once(reader, writer, ctx):
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_once(self, reader, writer, ctx: ClientContext) -> bool:
        """Read, stamp, dispatch and answer one request; False closes.

        The one request lifecycle of the front door: the transport only
        decides how bytes become the request dict (:meth:`_read_request`)
        and how a response dict becomes bytes (:meth:`_send`).
        """
        try:
            request = await self._read_request(reader, ctx)
            if request is None:
                return False
            if not isinstance(request, dict):
                raise BadRequest("bad request: request must be a JSON object")
        except (ServiceFault, wire.WireError) as exc:
            await self._send(writer, ctx, error_response(exc))
            # Keep serving only where the framing is still in sync: after a
            # well-framed bad request, and after an oversized wire frame
            # (its body was discarded).  The tail of an oversized line, or
            # whatever follows an undecodable frame, cannot be trusted.
            return isinstance(exc, BadRequest) or (
                isinstance(exc, FrameTooLarge) and ctx.transport == "wire"
            )
        stamp_deadline(request)
        stamp_request_id(request)
        reset = self._injected_reset(request.get("op"))
        if reset is not None:
            if reset.when == "after":
                # The nasty case: the work happens, the response is lost.
                await self._run_op(request, ctx)
            self._abort_connection(writer)
            return False
        if request.get("op") == "query" and request.get("stream"):
            response = await self._run_streaming(request, ctx, reader, writer)
            if response is None:
                return False  # the client hung up mid-stream
        else:
            response = await self._run_op(request, ctx)
        await self._send(writer, ctx, response)
        if request.get("op") == "hello" and response.get("transport") == "wire":
            # Switch only after the acknowledgement went out on JSON-lines.
            ctx.transport = "wire"
        if response.get("shutdown"):
            self.initiate_shutdown()
            return False
        return True

    async def _run_streaming(self, request, ctx, reader, writer) -> Optional[dict]:
        """:meth:`_run_op` for a streaming query; None if the client left.

        Shard frames go out from the op's thread through ``ctx.emit`` as
        their spans are evaluated; the returned response is the end
        frame (or the error that cut the stream short).  Meanwhile the
        disconnect watch holds a read on the client socket: an EOF there
        means the client is gone, so the stream is cancelled and its
        remaining spans are never evaluated (what the streaming tests
        pin).  Data that arrives instead of EOF is a pipelined request
        — pushed back for the main loop, never dropped.
        """
        loop = asyncio.get_running_loop()
        alive = True

        def hang_up() -> None:
            nonlocal alive
            alive = False
            if ctx.stream is not None:
                ctx.stream.cancel()

        def emit(frame: dict) -> None:
            if alive:
                try:
                    return asyncio.run_coroutine_threadsafe(
                        self._send(writer, ctx, frame), loop
                    ).result()
                except ConnectionError:
                    pass
            raise Cancelled("query cancelled mid-stream: the client hung up")

        ctx.emit = emit
        op = asyncio.ensure_future(self._run_op(request, ctx))
        eof_watch = asyncio.ensure_future(reader.read(4096))
        try:
            while alive and not op.done():
                await asyncio.wait({op, eof_watch}, return_when=asyncio.FIRST_COMPLETED)
                if eof_watch.done() and not op.done():
                    if self._take_pushback(eof_watch, ctx):
                        eof_watch = asyncio.ensure_future(reader.read(4096))
                    else:
                        hang_up()
        finally:
            if not op.done():
                # Retire the op before the connection goes back to the main
                # loop (or closes): its thread may be mid-emit.
                hang_up()
                await asyncio.wait({op})
            ctx.emit = ctx.stream = None
            if not eof_watch.done():
                # Must settle before the main loop reads again: two
                # coroutines waiting on one StreamReader is an error, and
                # cancellation only lands at the next loop step.
                eof_watch.cancel()
                await asyncio.wait({eof_watch})
            if not eof_watch.cancelled() and not self._take_pushback(eof_watch, ctx):
                alive = False
        response = op.result()
        return response if alive else None

    @staticmethod
    def _take_pushback(eof_watch, ctx: ClientContext) -> bool:
        """Keep what a finished disconnect watch read; False on EOF."""
        try:
            data = eof_watch.result()
        except ConnectionError:
            return False
        ctx.pushback += data
        return bool(data)

    # -- plumbing ----------------------------------------------------------------

    def _injected_reset(self, op):
        """The ConnReset to apply to this request, else None (chaos only)."""
        injector = self.service.fault_injector
        if injector is None:
            return None
        return injector.on_request(op if isinstance(op, str) else None)

    @staticmethod
    def _abort_connection(writer) -> None:
        """Make the coming close a hard TCP reset (RST), not a clean FIN.

        SO_LINGER with a zero timeout discards untransmitted data and
        sends RST on close, so an injected "connection reset" looks to
        the client exactly like a mid-flight network failure
        (``ConnectionResetError``), not like an orderly shutdown.
        """
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            except OSError:  # pragma: no cover - platform without SO_LINGER
                pass

    async def _run_op(self, request: dict, ctx: ClientContext) -> dict:
        if self.max_inflight and self._inflight >= self.max_inflight:
            # Load shedding: answering "overloaded" costs microseconds on
            # the loop thread; executing the op would hold an executor
            # worker.  Clients honour retry_after and back off.
            self.service.metrics.counter(
                "repro_requests_shed_total", "requests shed by admission control"
            ).inc()
            resp = error_response(
                Overloaded(
                    f"{self._inflight} requests in flight "
                    f"(cap {self.max_inflight})",
                    retry_after=0.05,
                )
            )
            resp["request_id"] = request["request_id"]  # stamped by _serve_once
            return resp
        self._inflight += 1
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._ops, self.service.handle, request, ctx
            )
        finally:
            self._inflight -= 1

    async def _read_request(self, reader, ctx: ClientContext):
        """The next request on this connection, decoded; None at EOF."""
        if ctx.transport == "wire":
            message = await self._read_frame(reader, ctx)
            return None if message is None else wiremsg.request_of(message)
        line = b"\n"
        while line and not line.strip():  # blank lines are skipped
            try:
                line = await self._readline(reader, ctx)
            except (asyncio.LimitOverrunError, ValueError):
                raise FrameTooLarge(
                    f"request line exceeds the {wiremsg.MAX_FRAME}-byte cap"
                ) from None
        if not line:
            return None
        try:
            return json.loads(line)
        except ValueError as exc:
            raise BadRequest(f"bad request: {exc}") from None

    @staticmethod
    async def _send(writer, ctx: ClientContext, response: dict) -> None:
        if ctx.transport == "wire":
            writer.write(wiremsg.pack_frame(wiremsg.message_of(response)))
        else:
            writer.write((json.dumps(response) + "\n").encode("utf-8"))
        await writer.drain()

    @staticmethod
    async def _readline(reader, ctx: ClientContext) -> bytes:
        if ctx.pushback:
            head, sep, rest = ctx.pushback.partition(b"\n")
            if sep:
                ctx.pushback = rest
                return head + sep
            ctx.pushback = b""
            return head + await reader.readline()
        return await reader.readline()

    async def _read_exact(self, reader, ctx: ClientContext, n: int) -> Optional[bytes]:
        buf = ctx.pushback[:n]
        ctx.pushback = ctx.pushback[n:]
        while len(buf) < n:
            chunk = await reader.read(n - len(buf))
            if not chunk:
                return None
            buf += chunk
        return bytes(buf)

    async def _discard(self, reader, ctx: ClientContext, n: int) -> None:
        """Drain ``n`` payload bytes without buffering them."""
        drop = min(n, len(ctx.pushback))
        ctx.pushback = ctx.pushback[drop:]
        n -= drop
        while n > 0:
            chunk = await reader.read(min(65536, n))
            if not chunk:
                return
            n -= len(chunk)

    async def _read_frame(self, reader, ctx: ClientContext):
        header = await self._read_exact(reader, ctx, wiremsg.FRAME_HEADER.size)
        if header is None:
            return None
        (length,) = wiremsg.FRAME_HEADER.unpack(header)
        if length > wiremsg.MAX_FRAME:
            # Discard the body so the framing stays in sync, then let the
            # caller answer with a structured frame_too_large error.
            await self._discard(reader, ctx, length)
            raise FrameTooLarge(
                f"wire frame of {length} bytes exceeds the "
                f"{wiremsg.MAX_FRAME}-byte cap"
            )
        data = await self._read_exact(reader, ctx, length)
        if data is None:
            return None
        try:
            return wire.decode(data)
        except wire.WireError:
            raise
        except Exception as exc:
            # Garbage bytes must never take down the connection task
            # unanswered (let alone the event loop): normalize every
            # decoder blow-up to the WireError the caller reports.
            raise wire.WireError(
                f"undecodable wire frame: {type(exc).__name__}: {exc}"
            ) from exc


def serve(
    host: str = "127.0.0.1",
    port: int = 7341,
    slots: int = 2,
    state_dir: Optional[str] = None,
    registry_dir: Optional[str] = None,
    chunk_epochs: int = 1,
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

    SIGTERM triggers a graceful drain (when the loop runs in the main
    thread, where signal handlers can be installed): new submits are
    rejected, in-flight jobs finish or checkpoint-park, then the server
    exits — so orchestrators that SIGTERM-then-wait never lose work.
    """
    service = Service(
        slots=slots, state_dir=state_dir, registry_dir=registry_dir,
        chunk_epochs=chunk_epochs, auth_token=auth_token,
        max_jobs_per_client=max_jobs_per_client, max_queue=max_queue,
        fault_plan=fault_plan, tracer=tracer,
    )

    async def main():
        server = ServiceServer(
            service, max_inflight=max_inflight, metrics_port=metrics_port
        )
        await server.start(host, port)
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, server.initiate_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without loop signal support
        _log.info("serving", host=host, port=server.port, slots=slots)
        if ready is not None:
            ready(server)
        await server.run_until_shutdown()
        _log.info("stopped", port=server.port)

    try:
        asyncio.run(main())
    finally:
        service.close(drain=False)
        service.tracer.close()
