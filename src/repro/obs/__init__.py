"""Unified telemetry: spans, metrics, and activity traces.

Three small pieces, all off-by-default-cheap:

* :mod:`repro.obs.span` — ``Span`` records ``(rank, name, start, end,
  attrs)``, the one activity record: every backend's trace is a list of
  spans, one per compute interval.  ``SpanBatch`` is wire-codec
  message 28, carrying each rank's spans to rank 0 at halt so ``repro
  trace`` renders Fig. 3-4 Gantt charts from real local/MPI runs.
  ``Tracer`` records spans; the disabled tracer (``NULL_TRACER``) is a
  no-op object.
* :mod:`repro.obs.metrics` — thread-safe ``Counter`` / ``Gauge`` /
  fixed-bucket ``Histogram`` in a ``MetricsRegistry`` that renders both
  a plain-dict snapshot (the ``metrics`` service op) and Prometheus
  text exposition (``repro serve --metrics-port``).
* :mod:`repro.util.log` — the structured JSON-lines logger the service
  tier correlates with request and job ids (documented here, lives in
  ``repro.util`` to stay import-light).
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.span import (
    NULL_TRACER,
    Span,
    SpanBatch,
    Tracer,
    read_spans_jsonl,
    write_spans_jsonl,
)

__all__ = [
    "Span",
    "SpanBatch",
    "Tracer",
    "NULL_TRACER",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "percentile",
]
