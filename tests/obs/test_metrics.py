"""Metric registry: counters, gauges, and ns-latency histograms."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Histogram,
    MetricRegistry,
    NULL_REGISTRY,
)


class TestCounter:
    def test_inc(self):
        registry = MetricRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricRegistry().counter("c").inc(-1)


class TestGauge:
    def test_set_keeps_last_value(self):
        gauge = MetricRegistry().gauge("g")
        gauge.set(3)
        gauge.set(7.5)
        assert gauge.value == 7.5


class TestHistogram:
    def test_exact_count_sum_min_max(self):
        histogram = Histogram("h")
        for value in (10, 20, 30):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 60
        assert histogram.minimum == 10
        assert histogram.maximum == 30
        assert histogram.mean == pytest.approx(20.0)

    def test_default_bounds_cover_ns_to_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS_NS[0] == 1.0
        assert DEFAULT_LATENCY_BUCKETS_NS[-1] == 5e10
        assert list(DEFAULT_LATENCY_BUCKETS_NS) == sorted(
            DEFAULT_LATENCY_BUCKETS_NS
        )

    def test_overflow_bucket_catches_huge_values(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        histogram.observe(1e9)
        assert histogram.counts[-1] == 1

    def test_quantile_interpolates_and_clamps(self):
        histogram = Histogram("h", bounds=(10.0, 100.0, 1000.0))
        for value in (5, 50, 500):
            histogram.observe(value)
        assert histogram.quantile(0.0) == pytest.approx(5.0)
        assert histogram.quantile(1.0) == pytest.approx(500.0)
        assert 5.0 <= histogram.quantile(0.5) <= 500.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(10.0, 1.0))

    def test_empty_series(self):
        histogram = Histogram("h")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 0.0

    def test_single_sample_every_quantile_is_that_sample(self):
        histogram = Histogram("h", bounds=(10.0, 100.0))
        histogram.observe(37.0)
        assert histogram.minimum == histogram.maximum == 37.0
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(37.0)

    def test_duplicate_values_clamp_to_the_value(self):
        # All mass on one point: interpolation inside the bucket must
        # not invent a spread the data doesn't have.
        histogram = Histogram("h", bounds=(10.0, 100.0, 1000.0))
        for _ in range(5):
            histogram.observe(50.0)
        assert histogram.mean == pytest.approx(50.0)
        for q in (0.0, 0.5, 0.9, 1.0):
            assert histogram.quantile(q) == pytest.approx(50.0)


class TestRegistry:
    def test_cross_type_name_collision_rejected(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot_is_json_serializable(self):
        registry = MetricRegistry()
        registry.counter("c", help="a count").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(42)
        snapshot = registry.snapshot()
        text = json.dumps(snapshot)
        assert '"c"' in text
        assert snapshot["c"]["type"] == "counter"
        assert snapshot["h"]["type"] == "histogram"
        assert snapshot["h"]["count"] == 1

    def test_render_lists_every_instrument(self):
        registry = MetricRegistry()
        registry.counter("resume.count").inc()
        registry.histogram("resume.total_ns").observe(132)
        rendered = registry.render()
        assert "resume.count" in rendered
        assert "resume.total_ns" in rendered

    def test_help_text_stored(self):
        registry = MetricRegistry()
        assert registry.counter("c", help="events").help == "events"
        assert registry.histogram("h", help="latency").help == "latency"


class TestBoundHandles:
    """Registry-level cache of per-registry objects (the run queues'
    ``runqueue.last_len`` cell): one per registry, shared by every
    component that asks for it."""

    def test_factory_runs_once_and_result_is_shared(self):
        registry = MetricRegistry()
        calls = []

        def factory(metrics):
            calls.append(metrics)
            return (metrics.counter("f.hits"), metrics.counter("f.misses"))

        first = registry.bound("f", factory)
        second = registry.bound("f", factory)
        assert first is second
        assert calls == [registry]
        first[0].inc()
        assert registry.counter("f.hits").value == 1

    def test_caches_are_per_registry(self):
        factory = lambda metrics: metrics.counter("c")
        a, b = MetricRegistry(), MetricRegistry()
        assert a.bound("k", factory) is not b.bound("k", factory)

    def test_clear_drops_cached_handles(self):
        registry = MetricRegistry()
        factory = lambda metrics: metrics.counter("c")
        stale = registry.bound("k", factory)
        registry.clear()
        fresh = registry.bound("k", factory)
        assert fresh is not stale
        fresh.inc()
        assert registry.counter("c").value == 1


class TestNullRegistry:
    def test_disabled_and_swallows_everything(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("c").inc(100)
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").observe(1)
        assert NULL_REGISTRY.counter("c").value == 0
        assert NULL_REGISTRY.histogram("h").count == 0

    def test_hands_out_shared_instruments(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
