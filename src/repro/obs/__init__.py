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

from repro.util.lazy import lazy_exports

# Read on first use (see repro.util.lazy): a rank shipping its spans home
# loads no metrics registry.
_EXPORTS = {
    ".span": (
        "Span",
        "SpanBatch",
        "Tracer",
        "NULL_TRACER",
        "write_spans_jsonl",
        "read_spans_jsonl",
    ),
    ".metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "DEFAULT_LATENCY_BUCKETS",
        "percentile",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = lazy_exports(__name__, _EXPORTS)
