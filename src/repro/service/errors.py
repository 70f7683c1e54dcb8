"""Structured service errors: machine-readable codes + retry semantics.

Every failure the service reports over the protocol carries, besides the
human-readable ``"error"`` string, a stable machine-readable ``"code"``
so clients can branch without parsing prose — and, where the right
reaction is "come back later", a ``"retry_after"`` hint in seconds.

The exception classes here are the *internal* counterparts: handlers
raise them, :meth:`repro.service.server.Service.handle` renders them
with :func:`error_response`.  They deliberately live in a leaf module
with no intra-package imports, so the scheduler, query engine and server
can all raise them without import cycles.

Codes
-----
``bad_request``        malformed/invalid request (not retryable as-is);
``unauthenticated``    missing/wrong token (send a hello first);
``deadline_exceeded``  the request's deadline passed before completion;
``cancelled``          the client hung up mid-stream (seen in metrics only);
``overloaded``         load shed — honour ``retry_after`` and resend;
``unavailable``        transient server-side failure — safe to retry;
``shutting_down``      the server is draining; reconnect elsewhere/later;
``frame_too_large``    a request line exceeded the 64 MiB cap.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ServiceFault",
    "BadRequest",
    "Unauthenticated",
    "DeadlineExceeded",
    "Cancelled",
    "Overloaded",
    "Unavailable",
    "ShuttingDown",
    "FrameTooLarge",
    "error_response",
    "RETRYABLE_CODES",
    "InjectedFault",
]

#: codes a client may blindly retry (with backoff); everything else
#: needs the request changed first.
RETRYABLE_CODES = ("overloaded", "unavailable", "shutting_down")


class ServiceFault(Exception):
    """Base of all coded service failures.

    ``retry_after`` (seconds) is advisory: present on faults where
    retrying later is the expected reaction.
    """

    code = "error"

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class BadRequest(ServiceFault):
    code = "bad_request"


class Unauthenticated(ServiceFault):
    code = "unauthenticated"

    def __init__(
        self,
        message: str = 'authentication required: send {"op": "hello", "token": "..."} first',
    ):
        super().__init__(message)


class DeadlineExceeded(ServiceFault):
    code = "deadline_exceeded"


class Cancelled(ServiceFault):
    """The client hung up mid-stream: the work was dropped, nobody reads this."""

    code = "cancelled"


class Overloaded(ServiceFault):
    """Load shed: admission control refused the work.  Retryable."""

    code = "overloaded"

    def __init__(self, message: str, retry_after: float = 0.1):
        super().__init__(message, retry_after=retry_after)


class Unavailable(ServiceFault):
    """Transient server-side failure (e.g. a faulted engine lease).

    The request itself was fine; a retry is expected to succeed.
    """

    code = "unavailable"

    def __init__(self, message: str, retry_after: float = 0.05):
        super().__init__(message, retry_after=retry_after)


class ShuttingDown(ServiceFault):
    code = "shutting_down"

    def __init__(self, message: str = "server is draining; no new work accepted"):
        super().__init__(message, retry_after=1.0)


class FrameTooLarge(ServiceFault):
    """A request line over the front door's 64 MiB cap (``server.MAX_FRAME``)."""

    code = "frame_too_large"


class InjectedFault(RuntimeError):
    """Raised (or simulated) at an injection point; never a real bug.

    Defined here so the scheduler can catch it without loading the fault
    layer; :mod:`repro.fault.service` raises it and re-exports it."""


def error_response(exc: Exception, code: Optional[str] = None) -> dict:
    """Render any exception as a protocol error dict.

    :class:`ServiceFault` subclasses carry their own code (and
    ``retry_after``); everything else defaults to ``bad_request`` —
    the pre-existing convention for ValueError-family handler errors —
    unless ``code`` overrides it.
    """
    if isinstance(exc, ServiceFault):
        out = {"ok": False, "error": str(exc), "code": exc.code}
        if exc.retry_after is not None:
            out["retry_after"] = exc.retry_after
        return out
    return {
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
        "code": code or "bad_request",
    }
