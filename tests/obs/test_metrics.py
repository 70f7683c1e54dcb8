"""Tests for counters/gauges/histograms, the registry, and Prometheus text."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_interpolation(self):
        assert percentile([10.0, 20.0, 30.0, 40.0], 50) == pytest.approx(25.0)
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 100) == 2.0

    def test_single_and_empty(self):
        assert percentile([3.5], 99) == 3.5
        with pytest.raises(ValueError, match="no samples"):
            percentile([], 50)

    def test_matches_loadgen_percentile(self):
        # loadgen re-exports this function; the two must be one object so
        # serve/loadgen/chaos can never disagree about percentile math.
        from repro.experiments.loadgen import percentile as lg_percentile

        assert lg_percentile is percentile


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == 5

    def test_thread_safety(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestGauge:
    def test_set(self):
        g = Gauge()
        g.set(7.0)
        g.set(8.0)
        assert g.value == 8.0
        assert g.snapshot() == 8.0


class TestHistogram:
    def test_basic_accounting(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        h.observe_many([0.5, 1.5, 3.0, 10.0])
        assert h.count == 4
        assert h.sum == pytest.approx(15.0)
        assert h.max == 10.0
        assert h.mean == pytest.approx(3.75)

    def test_cumulative_buckets(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe_many([0.5, 1.5, 5.0])
        assert h.cumulative_buckets() == [(1.0, 1), (2.0, 2), (float("inf"), 3)]

    def test_boundary_is_inclusive(self):
        h = Histogram(buckets=(1.0,))
        h.observe(1.0)
        assert h.cumulative_buckets()[0] == (1.0, 1)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram(buckets=(2.0, 1.0))

    def test_exact_percentile_with_samples(self):
        h = Histogram(track_samples=True)
        h.observe_many([10.0, 20.0, 30.0, 40.0])
        assert h.percentile(50) == pytest.approx(25.0)

    def test_bucket_percentile_without_samples(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        h.observe_many([0.5] * 50 + [1.5] * 50)
        # Median sits at the edge between the two occupied buckets.
        assert 0.5 <= h.percentile(50) <= 2.0

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(50)

    def test_snapshot_shape(self):
        h = Histogram(buckets=(1.0,))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["buckets"] == {"1.0": 1, "+Inf": 1}


class TestRegistry:
    def test_create_or_get_identity(self):
        r = MetricsRegistry()
        a = r.counter("repro_requests_total", op="ping")
        b = r.counter("repro_requests_total", op="ping")
        assert a is b
        assert r.counter("repro_requests_total", op="query") is not a

    def test_kind_pinned_per_name(self):
        r = MetricsRegistry()
        r.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x_total")

    def test_snapshot_nests_labels(self):
        r = MetricsRegistry()
        r.counter("reqs", op="ping").inc(3)
        r.gauge("depth").set(2.0)
        snap = r.snapshot()
        assert snap["reqs"] == {"op=ping": 3}
        assert snap["depth"] == 2.0

    def test_isolated_instances(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc()
        assert "n" not in b.snapshot()


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        r = MetricsRegistry()
        r.counter("repro_requests_total", help="Requests served.", op="query").inc(2)
        r.gauge("repro_draining").set(1)
        text = r.render_prometheus()
        assert "# HELP repro_requests_total Requests served." in text
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{op="query"} 2' in text
        assert "repro_draining 1" in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        r = MetricsRegistry()
        h = r.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe_many([0.05, 0.5, 5.0])
        text = r.render_prometheus()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "lat_seconds_sum 5.55" in text

    def test_label_escaping(self):
        r = MetricsRegistry()
        r.counter("errs", code='bad"quote').inc()
        assert 'code="bad\\"quote"' in r.render_prometheus()

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
