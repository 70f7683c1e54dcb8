"""Spans: wall-clock activity records shipped from every rank to rank 0.

A :class:`Span` — ``(rank, name, start, end, attrs)`` — is the one
activity record, the exact record behind the paper's Figs. 3-4 activity
analysis: the sim scheduler and the real backends record one per
compute interval (virtual time on sim, wall-clock on local/MPI), and
the tracer one per timed block.  :class:`SpanBatch` is the wire-codec
message (code 28) that carries a rank's spans home at halt on the local
and MPI backends.

The :class:`Tracer` is the recording front end.  A disabled tracer is
the shared :data:`NULL_TRACER` no-op object, so instrumented code pays
one attribute check when telemetry is off.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.parallel import wire

__all__ = [
    "Span",
    "SpanBatch",
    "Tracer",
    "NULL_TRACER",
    "write_spans_jsonl",
    "read_spans_jsonl",
]


@dataclass(frozen=True)
class Span:
    """One traced activity: *rank* ran *name* from *start* to *end* seconds.

    The record behind the Fig. 3/4 trace: a compute interval of one node
    (virtual seconds on sim, wall-clock on local/MPI; ``attrs`` empty)
    or a telemetry span (:class:`Tracer`).  ``attrs`` is a sorted tuple
    of ``(key, value)`` string pairs — hashable, deterministic, and
    cheap to wire-encode.
    """

    rank: int
    name: str
    start: float
    end: float
    attrs: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        d = {"rank": self.rank, "name": self.name, "start": self.start, "end": self.end}
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        attrs = tuple(sorted((str(k), str(v)) for k, v in d.get("attrs", {}).items()))
        return cls(
            rank=int(d["rank"]),
            name=str(d["name"]),
            start=float(d["start"]),
            end=float(d["end"]),
            attrs=attrs,
        )


@dataclass(frozen=True)
class SpanBatch:
    """All spans recorded by one rank, shipped to rank 0 at halt."""

    rank: int
    spans: tuple = ()


# -- wire codec (code 28) ---------------------------------------------------------


def _enc_span_batch(e, m: SpanBatch) -> None:
    e.u(m.rank)
    e.u(len(m.spans))
    for s in m.spans:
        e.u(s.rank)
        e.sym(s.name)
        e.f64(s.start)
        e.f64(s.end)
        e.u(len(s.attrs))
        for k, v in s.attrs:
            e.sym(k)
            e.sym(v)


def _dec_span_batch(d) -> SpanBatch:
    rank = d.u()
    n = d.u()
    spans = []
    for _ in range(n):
        srank = d.u()
        name = d.sym()
        start = d.f64()
        end = d.f64()
        attrs = tuple((d.sym(), d.sym()) for _ in range(d.u()))
        spans.append(Span(srank, name, start, end, attrs))
    return SpanBatch(rank=rank, spans=tuple(spans))


wire.register_codec(SpanBatch, 28, _enc_span_batch, _dec_span_batch)


def encode_batch(rank: int, trace: Sequence[Span]) -> bytes:
    """Wire-encode a rank's trace as a SpanBatch."""
    return wire.encode_always(SpanBatch(rank=rank, spans=tuple(trace)))


def decode_batch(data: bytes) -> list:
    """Decode SpanBatch bytes back to the rank's list of spans."""
    batch = wire.decode(data)
    if not isinstance(batch, SpanBatch):
        raise wire.WireError(f"expected SpanBatch, got {type(batch).__name__}")
    return list(batch.spans)


# -- tracer -----------------------------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe span recorder with an optional JSONL write-through sink.

    ``tracer.span("saturate", epoch="3")`` times the enclosed block and
    records a :class:`Span` on exit.  ``record(...)`` takes explicit
    timestamps for activity already measured elsewhere.
    """

    enabled = True

    def __init__(self, rank: int = 0, clock=time.perf_counter, sink: Optional[str] = None):
        self.rank = rank
        self.clock = clock
        self._spans: list = []
        self._lock = threading.Lock()
        self._sink_path = sink
        self._sink_file = open(sink, "a", encoding="utf-8") if sink else None

    @contextmanager
    def span(self, name: str, **attrs: str) -> Iterator[None]:
        start = self.clock()
        try:
            yield
        finally:
            self.record(name, start, self.clock(), **attrs)

    def record(self, name: str, start: float, end: float, **attrs: str) -> None:
        s = Span(
            self.rank,
            name,
            start,
            end,
            tuple(sorted((k, str(v)) for k, v in attrs.items())),
        )
        with self._lock:
            self._spans.append(s)
            if self._sink_file is not None:
                self._sink_file.write(json.dumps(s.to_dict(), sort_keys=True) + "\n")
                self._sink_file.flush()

    def spans(self) -> list:
        with self._lock:
            return list(self._spans)

    def close(self) -> None:
        with self._lock:
            if self._sink_file is not None:
                self._sink_file.close()
                self._sink_file = None


class _NullTracer:
    """The disabled tracer: every operation is a no-op, span() allocates nothing."""

    enabled = False
    rank = 0

    def span(self, name: str, **attrs: str):
        return _NULL_SPAN

    def record(self, name: str, start: float, end: float, **attrs: str) -> None:
        pass

    def spans(self) -> list:
        return []

    def close(self) -> None:
        pass


NULL_TRACER = _NullTracer()


# -- JSONL export -----------------------------------------------------------------


def write_spans_jsonl(path: str, spans: Iterable[Span]) -> int:
    """Write spans one-JSON-object-per-line; returns the span count."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(s.to_dict(), sort_keys=True) + "\n")
            n += 1
    return n


def read_spans_jsonl(path: str) -> list:
    """Read back a JSONL span file written by write_spans_jsonl or a sink."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(Span.from_dict(json.loads(line)))
    return out
