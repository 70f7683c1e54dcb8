"""Structured logging: JSON-lines or key=value text, with bound context.

``REPRO_LOG=json`` emits one JSON object per line (machine-ingestable);
``REPRO_LOG=text`` (the default) emits a human ``LEVEL logger event
k=v ...`` line.  Both carry whatever fields are bound in the ambient
:func:`log_context` — the service tier binds ``request_id`` at transport
read time and the scheduler binds ``job_id``, so every line about one
request or job correlates by grep.

Loggers write to stderr so they never pollute stdout result framing.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import time
from typing import Optional

__all__ = [
    "StructuredLogger",
    "get_logger",
    "log_context",
    "log_format",
    "set_log_format",
    "log_level",
    "set_log_level",
]

_LEVELS = ("debug", "info", "warning", "error")
_RANK = {name: i for i, name in enumerate(_LEVELS)}

_level_override: Optional[str] = None
#: rank of :func:`log_level`, resolved at the first log call (the server
#: asks once per suppressed ``debug``) and dropped by :func:`set_log_level`.
_threshold: Optional[int] = None


def log_level() -> str:
    """Minimum emitted level: REPRO_LOG_LEVEL env (default ``info``)."""
    if _level_override is not None:
        return _level_override
    lvl = os.environ.get("REPRO_LOG_LEVEL", "info").lower()
    return lvl if lvl in _LEVELS else "info"


def set_log_level(level: Optional[str]) -> None:
    """Force the threshold in-process; None restores the env default.

    The resolved threshold is dropped, so after ``None`` the next log call
    reads ``REPRO_LOG_LEVEL`` again."""
    global _level_override, _threshold
    if level is not None and level not in _LEVELS:
        raise ValueError(f"log level must be one of {_LEVELS}, not {level!r}")
    _level_override = level
    _threshold = None


_context: contextvars.ContextVar = contextvars.ContextVar("repro_log_ctx", default=())

_format_override: Optional[str] = None


def log_format() -> str:
    """Active output format: ``"json"`` or ``"text"`` (REPRO_LOG env)."""
    if _format_override is not None:
        return _format_override
    fmt = os.environ.get("REPRO_LOG", "text").lower()
    return "json" if fmt == "json" else "text"


def set_log_format(fmt: Optional[str]) -> None:
    """Force the format in-process; None restores the env default."""
    global _format_override
    if fmt is not None and fmt not in ("json", "text"):
        raise ValueError(f"log format must be 'json' or 'text', not {fmt!r}")
    _format_override = fmt


class log_context:
    """Bind fields (request_id=..., job_id=...) to every log line inside."""

    __slots__ = ("_fields", "_token")

    def __init__(self, **fields):
        self._fields = tuple(fields.items())

    def __enter__(self) -> None:
        self._token = _context.set(_context.get() + self._fields)

    def __exit__(self, *exc) -> None:
        _context.reset(self._token)


def bound_context() -> dict:
    """The ambient fields bound by enclosing log_context blocks."""
    return dict(_context.get())


class StructuredLogger:
    """Named logger emitting structured lines to a stream (stderr default)."""

    def __init__(self, name: str, stream=None, clock=time.time):
        self.name = name
        self._stream = stream
        self.clock = clock

    @property
    def stream(self):
        return self._stream if self._stream is not None else sys.stderr

    def log(self, level: str, event: str, **fields) -> None:
        global _threshold
        rank = _RANK.get(level)
        if rank is None:
            raise ValueError(f"unknown log level {level!r}")
        if _threshold is None:
            _threshold = _RANK[log_level()]
        if rank < _threshold:
            return
        record = {"ts": round(self.clock(), 6), "level": level, "logger": self.name, "event": event}
        record.update(bound_context())
        record.update(fields)
        try:
            if log_format() == "json":
                line = json.dumps(record, sort_keys=False, default=str)
            else:
                kv = " ".join(
                    f"{k}={_fmt_value(v)}"
                    for k, v in record.items()
                    if k not in ("ts", "level", "logger", "event")
                )
                line = f"{level.upper():7s} {self.name} {event}" + (f" {kv}" if kv else "")
            print(line, file=self.stream, flush=True)
        except (OSError, ValueError):
            pass  # a closed/broken log stream must never take down the server

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)


def _fmt_value(v) -> str:
    s = str(v)
    if " " in s or '"' in s:
        return json.dumps(s)
    return s


_loggers: dict = {}


def get_logger(name: str) -> StructuredLogger:
    """Create-or-get the process-wide logger for *name*."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = StructuredLogger(name)
    return logger
