"""Metrics: thread-safe counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per service (or one module-level default
for library code).  All three instrument types are cheap enough for hot
paths — a counter increment is one lock acquire + integer add — and the
registry renders both a plain-dict snapshot (for the ``metrics`` service
op and the ``stats`` section) and Prometheus text exposition (for the
``repro serve --metrics-port`` endpoint).

Histograms use fixed bucket upper bounds (Prometheus-style cumulative
``le`` buckets).  With ``track_samples=True`` they additionally keep the
raw observations so :meth:`Histogram.percentile` is exact — loadgen and
the chaos harness use that mode, keeping their reported p50/p95/p99
identical to the former private percentile code.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "percentile",
]

# Seconds; spans 0.5 ms .. 30 s, the range a query or job op can take.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) over raw samples."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self):
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, busy slots)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, v: float) -> None:
        with self._lock:
            self._value = v

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self):
        return self._value


class Histogram:
    """Fixed-bucket histogram; optionally keeps raw samples for exact percentiles.

    ``observe`` is O(buckets) without samples, O(1) amortised append with.
    Bucket bounds are inclusive upper edges in ascending order; an
    implicit ``+Inf`` bucket catches the rest (Prometheus convention).
    """

    kind = "histogram"

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        track_samples: bool = False,
    ) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be ascending")
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf bucket last
        self._sum = 0.0
        self._count = 0
        self._max = 0.0
        self._samples: Optional[list] = [] if track_samples else None
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        with self._lock:
            i = 0
            for bound in self.buckets:
                if v <= bound:
                    break
                i += 1
            self._counts[i] += 1
            self._sum += v
            self._count += 1
            if v > self._max:
                self._max = v
            if self._samples is not None:
                self._samples.append(v)

    def observe_many(self, vs: Iterable[float]) -> None:
        for v in vs:
            self.observe(v)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        return self._max

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Exact (from samples) or bucket-interpolated percentile, q in [0,100]."""
        with self._lock:
            if self._count == 0:
                raise ValueError("percentile of empty histogram")
            if self._samples is not None:
                xs = list(self._samples)
        if self._samples is not None:
            return percentile(xs, q)
        # Bucket interpolation: find the bucket holding the target rank,
        # interpolate linearly inside it (Prometheus histogram_quantile).
        with self._lock:
            counts = list(self._counts)
            total = self._count
            hmax = self._max
        target = (q / 100.0) * total
        cum = 0.0
        lo_edge = 0.0
        for i, c in enumerate(counts):
            hi_edge = self.buckets[i] if i < len(self.buckets) else hmax
            if cum + c >= target and c > 0:
                frac = (target - cum) / c
                return lo_edge + (hi_edge - lo_edge) * frac
            cum += c
            lo_edge = hi_edge
        return hmax

    def cumulative_buckets(self) -> list:
        """[(upper_bound, cumulative_count)] including the +Inf bucket."""
        with self._lock:
            counts = list(self._counts)
        out = []
        cum = 0
        for i, bound in enumerate(self.buckets):
            cum += counts[i]
            out.append((bound, cum))
        out.append((float("inf"), cum + counts[-1]))
        return out

    def snapshot(self):
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "max": self._max,
                "mean": self._sum / self._count if self._count else 0.0,
                "buckets": {
                    ("+Inf" if b == float("inf") else repr(b)): c
                    for b, c in zip(
                        list(self.buckets) + [float("inf")],
                        _cumulate(self._counts),
                    )
                },
            }


def _cumulate(counts: Sequence[int]) -> list:
    out = []
    cum = 0
    for c in counts:
        cum += c
        out.append(cum)
    return out


class MetricsRegistry:
    """Named metrics with optional labels; thread-safe create-or-get access.

    ``registry.counter("repro_requests_total", op="query")`` returns the
    one counter for that (name, labels) pair, creating it on first use.
    Metric kind is pinned at first registration — re-registering the same
    name with a different kind raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[tuple, object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: str, factory, help: str, labels: dict):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing_kind}, not {kind}"
                )
            m = self._metrics.get(key)
            if m is None:
                m = self._metrics[key] = factory()
                self._kinds[name] = kind
                if help:
                    self._help[name] = help
            return m

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(name, "counter", Counter, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(name, "gauge", Gauge, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        track_samples: bool = False,
        **labels,
    ) -> Histogram:
        return self._get(
            name,
            "histogram",
            lambda: Histogram(buckets=buckets, track_samples=track_samples),
            help,
            labels,
        )

    def snapshot(self) -> dict:
        """Plain-dict view for the ``metrics`` service op / stats section.

        ``{name: value}`` for label-less counters/gauges; labelled metrics
        nest as ``{name: {"label=value,...": value}}``; histograms nest
        their summary dict.
        """
        with self._lock:
            items = list(self._metrics.items())
        out: dict = {}
        for (name, labels), metric in sorted(items, key=lambda kv: kv[0]):
            value = metric.snapshot()
            if labels:
                out.setdefault(name, {})[
                    ",".join(f"{k}={v}" for k, v in labels)
                ] = value
            else:
                out[name] = value
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            items = list(self._metrics.items())
            kinds = dict(self._kinds)
            helps = dict(self._help)
        by_name: Dict[str, list] = {}
        for (name, labels), metric in items:
            by_name.setdefault(name, []).append((labels, metric))
        lines = []
        for name in sorted(by_name):
            if name in helps:
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} {kinds[name]}")
            for labels, metric in sorted(by_name[name], key=lambda lm: lm[0]):
                base = _label_str(labels)
                if kinds[name] == "histogram":
                    for bound, cum in metric.cumulative_buckets():
                        le = "+Inf" if bound == float("inf") else _fmt_float(bound)
                        lines.append(
                            f"{name}_bucket{_label_str(labels + (('le', le),))} {cum}"
                        )
                    lines.append(f"{name}_sum{base} {_fmt_float(metric.sum)}")
                    lines.append(f"{name}_count{base} {metric.count}")
                else:
                    lines.append(f"{name}{base} {_fmt_float(metric.value)}")
        return "\n".join(lines) + "\n"


def _fmt_float(v: float) -> str:
    if isinstance(v, int) or (isinstance(v, float) and v == int(v) and abs(v) < 1e15):
        return str(int(v))
    return repr(float(v))


def _label_str(labels: tuple) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape(str(v))}"' for k, v in labels)
    return "{" + body + "}"


def _escape(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
