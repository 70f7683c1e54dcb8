"""The blocking client for :func:`repro.service.server.serve` endpoints.

One send/receive pair carries everything: :meth:`ServiceClient.request`
sends a request dict as one JSON line and returns the response line as
a dict.  Retries, streaming and the convenience wrappers are built on
that pair alone.
"""

from __future__ import annotations

import json
import random
import socket
import time
import uuid
from typing import Iterator, Optional

from repro.service.errors import RETRYABLE_CODES
from repro.service.jobs import JobSpec

__all__ = ["ServiceClient"]


class ServiceClient:
    """Blocking client for :func:`serve` endpoints.

    Speaks JSON-lines, the server's one transport.  ``transport`` is
    accepted for the callers that still pass it: ``"wire"`` once asked for
    a binary framing the server no longer offers, and runs on JSON-lines
    like ``"json"``.  ``token`` authenticates the connection with a hello.
    ``bytes_sent`` / ``bytes_received`` count the bytes on the socket.

    ``timeout`` (seconds) bounds *connection setup*; established
    connections block indefinitely by default — ``wait`` requests
    legitimately outlast any fixed socket timeout (learning jobs run for
    minutes), and the server answers every request eventually.  Pass
    ``read_timeout`` to bound individual responses instead.

    **Retries.**  ``retries`` > 0 arms :meth:`request_with_retry` (used
    by every convenience wrapper): capped exponential backoff with
    deterministic jitter, transparent reconnection (re-running the
    hello, so auth survives), and honouring server
    ``retry_after`` hints on ``overloaded``/``unavailable``/
    ``shutting_down`` answers.  Connection loss only triggers a resend
    for idempotent requests — a submit is idempotent exactly when it
    carries an idempotency key (:meth:`submit` generates one whenever
    retries are armed).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7341,
        timeout: float = 60.0,
        read_timeout: Optional[float] = None,
        token: Optional[str] = None,
        transport: str = "json",
        retries: int = 0,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        retry_seed: int = 0,
    ):
        if transport not in ("json", "wire"):
            raise ValueError(f"unknown transport {transport!r}")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.read_timeout = read_timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self._rng = random.Random(retry_seed)
        self._token = token
        self.bytes_sent = 0
        self.bytes_received = 0
        self.reconnects = 0
        self.retried = 0
        self.sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    def _connect(self) -> None:
        self.sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self.sock.settimeout(self.read_timeout)
        self._file = self.sock.makefile("rwb")
        if self._token is not None:
            self.hello(token=self._token)

    def _teardown(self) -> None:
        try:
            if self._file is not None:
                self._file.close()
            if self.sock is not None:
                self.sock.close()
        except OSError:
            pass
        self._file = None
        self.sock = None

    @staticmethod
    def _friendly(exc: OSError, context: str) -> ConnectionError:
        kind = (
            "connection reset"
            if isinstance(exc, ConnectionResetError)
            else "broken pipe"
        )
        return ConnectionError(
            f"repro: {context} ({kind}); the server may or may not have "
            "processed the request — idempotent requests are safe to retry"
        )

    # -- transport ---------------------------------------------------------------

    def _send(self, payload: dict) -> None:
        if self._file is None:
            raise ConnectionError("client is disconnected")
        data = (json.dumps(payload) + "\n").encode("utf-8")
        try:
            self._file.write(data)
            self._file.flush()
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise self._friendly(exc, "lost connection to the service") from exc
        self.bytes_sent += len(data)

    def _recv(self) -> dict:
        try:
            line = self._file.readline()
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise self._friendly(exc, "lost connection to the service") from exc
        self.bytes_received += len(line)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, payload: dict) -> dict:
        """Send one request; return the decoded response dict."""
        self._send(payload)
        return self._recv()

    def hello(self, token: Optional[str] = None, client: Optional[str] = None) -> dict:
        """Authenticate this connection (and name the client, for quotas)."""
        if token is not None:
            self._token = token  # remembered so reconnects re-authenticate
        req = {"op": "hello"}
        if token is not None:
            req["token"] = token
        if client is not None:
            req["client"] = client
        resp = self.request(req)
        if not resp.get("ok"):
            raise RuntimeError(resp.get("error", "hello failed"))
        return resp

    def _backoff_delay(self, attempt: int, hint: Optional[float] = None) -> float:
        """Capped exponential backoff with jitter; server hints win."""
        base = min(self.backoff * (2 ** attempt), self.backoff_max)
        delay = base * (0.5 + self._rng.random())  # jitter in [0.5x, 1.5x)
        if hint is not None:
            delay = max(delay, float(hint))
        return delay

    def request_with_retry(self, payload: dict, idempotent: bool = True) -> dict:
        """Send with retries: reconnect on connection loss, back off on shed.

        Two retryable situations, handled differently:

        * **connection loss** — reconnect (redoing hello) and resend,
          but only for idempotent requests: the server may have done the
          work before the connection died, and resending a
          non-idempotent request (a submit without an idempotency key)
          could duplicate it;
        * **coded retryable errors** (``overloaded``/``unavailable``/
          ``shutting_down``) — same connection, wait at least the
          server's ``retry_after`` hint, resend.

        With ``retries=0`` this is exactly :meth:`request`.
        """
        last_exc: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if self._file is None:
                try:
                    self._connect()
                    self.reconnects += 1
                except OSError as exc:
                    last_exc = exc
                    if attempt >= self.retries:
                        raise
                    self.retried += 1
                    time.sleep(self._backoff_delay(attempt))
                    continue
            try:
                resp = self.request(payload)
            except (ConnectionError, OSError) as exc:
                self._teardown()
                last_exc = exc
                if not idempotent or attempt >= self.retries:
                    raise
                self.retried += 1
                time.sleep(self._backoff_delay(attempt))
                continue
            if (
                not resp.get("ok")
                and resp.get("code") in RETRYABLE_CODES
                and attempt < self.retries
            ):
                self.retried += 1
                time.sleep(self._backoff_delay(attempt, hint=resp.get("retry_after")))
                continue
            return resp
        raise last_exc if last_exc is not None else ConnectionError(
            "retries exhausted"
        )

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- convenience wrappers ----------------------------------------------------

    def submit(self, spec: JobSpec, idempotency_key: Optional[str] = None) -> str:
        """Submit one job; returns its id.

        When retries are armed and no ``idempotency_key`` is given, a
        fresh one is generated — so a retried submit whose response was
        lost mid-air can never create the job twice.
        """
        if idempotency_key is None and self.retries:
            idempotency_key = uuid.uuid4().hex
        req = {"op": "submit", "spec": spec.to_dict()}
        if idempotency_key is not None:
            req["idempotency_key"] = idempotency_key
        resp = self.request_with_retry(req, idempotent=idempotency_key is not None)
        if not resp.get("ok"):
            raise RuntimeError(resp.get("error", "submit failed"))
        return resp["job"]

    def wait(self, job_id: str, timeout: Optional[float] = None) -> dict:
        return self.request_with_retry({"op": "wait", "job": job_id, "timeout": timeout})

    @staticmethod
    def _query_request(theory, examples, version, shards, deadline_ms) -> dict:
        req = {
            "op": "query", "theory": theory, "examples": examples,
            "version": version, "shards": shards,
        }
        if deadline_ms is not None:
            req["deadline_ms"] = deadline_ms
        return req

    def query(
        self,
        theory: str,
        examples: list[str],
        version: Optional[int] = None,
        shards: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> dict:
        """One batched query, answered as one response dict.

        ``deadline_ms`` attaches a relative deadline the server enforces
        end-to-end (expired work is rejected, a query in flight stops at
        its next span boundary).  Retried like any idempotent request.
        """
        return self.request_with_retry(
            self._query_request(theory, examples, version, shards, deadline_ms)
        )

    def query_stream(
        self,
        theory: str,
        examples: list[str],
        version: Optional[int] = None,
        shards: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> Iterator[dict]:
        """Stream a query span by span; yields shard frames, then the end frame.

        Every yielded dict has ``"frame"`` (``"shard"`` or ``"end"``);
        shard frames carry span-local ``covered`` at offset ``lo``, the
        end frame the merged batch result.  Streams are never retried
        transparently (already-yielded frames cannot be unseen) — on a
        mid-stream connection loss the caller re-issues the whole query.
        """
        req = self._query_request(theory, examples, version, shards, deadline_ms)
        req["stream"] = True
        self._send(req)
        while True:
            try:
                resp = self._recv()
            except ConnectionError as exc:
                raise ConnectionError(
                    f"repro: lost connection mid-stream ({exc}); re-issue the query"
                ) from exc
            if not resp.get("ok"):
                raise RuntimeError(resp.get("error", "query failed"))
            yield resp
            if resp.get("frame") == "end":
                return
