"""Metrics primitives: bucketing, registry semantics, deterministic export."""

import json

import pytest

from repro.obs import MetricsRegistry, prometheus_text
from repro.obs.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_accumulates(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        counter = Counter("x")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("x")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3


class TestHistogram:
    def test_bucketing_le_semantics(self):
        """A value equal to a bucket edge lands in that edge's bucket (``le``)."""
        hist = Histogram("h", (1, 2, 4))
        for value in (1, 2, 3, 4, 5):
            hist.observe(value)
        # 1 -> bucket le=1; 2 -> le=2; 3,4 -> le=4; 5 -> +Inf overflow.
        assert hist.counts == [1, 1, 2, 1]
        assert hist.count == 5
        assert hist.total == 15

    def test_below_first_edge(self):
        hist = Histogram("h", (10, 100))
        hist.observe(0)
        assert hist.counts == [1, 0, 0]

    def test_as_dict_shape(self):
        hist = Histogram("h", (1, 2))
        hist.observe(2)
        assert hist.as_dict() == {
            "bounds": [1, 2],
            "counts": [0, 1, 0],
            "sum": 2,
            "count": 1,
        }

    def test_rejects_empty_and_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (2, 1))
        with pytest.raises(ValueError):
            Histogram("h", (1, 1, 2))


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h", (1, 2)) is registry.histogram("h")

    def test_cross_type_name_collision(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")
        with pytest.raises(ValueError):
            registry.histogram("name", (1,))

    def test_histogram_bounds_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", (1, 2, 3))

    def test_snapshot_deterministic_across_insertion_order(self):
        """Same metrics, different creation order -> byte-identical JSON."""

        def populate(registry, names):
            for name in names:
                registry.counter(name).inc(3)
            registry.gauge("g").set(2)
            registry.histogram("h", (1, 4)).observe(2)
            return registry

        first = populate(MetricsRegistry(), ["b", "a", "c"])
        second = populate(MetricsRegistry(), ["c", "a", "b"])
        dump = lambda registry: json.dumps(registry.snapshot(), sort_keys=True)
        assert dump(first) == dump(second)

    def test_snapshot_repeatable(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(1)
        assert registry.snapshot() == registry.snapshot()

    def test_merge_folds_a_snapshot(self):
        """Counters and histograms add, gauges take the merged value."""
        source = MetricsRegistry()
        source.counter("c").inc(3)
        source.gauge("g").set(7)
        for value in (1, 3, 9):
            source.histogram("h", (1, 4)).observe(value)
        snapshot = source.snapshot()
        assert MetricsRegistry().merge(snapshot).snapshot() == snapshot
        target = MetricsRegistry()
        target.counter("c").inc(1)
        target.gauge("g").set(1)
        target.histogram("h", (1, 4)).observe(2)
        merged = target.merge(snapshot).snapshot()
        assert merged["counters"] == {"c": 4}
        assert merged["gauges"] == {"g": 7}
        assert merged["histograms"]["h"] == {
            "bounds": [1, 4], "counts": [1, 2, 1], "sum": 15, "count": 4,
        }
        mismatched = MetricsRegistry()
        mismatched.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            mismatched.merge(snapshot)


class TestPrometheus:
    def test_rendering(self):
        registry = MetricsRegistry()
        registry.counter("it.events_seen").inc(10)
        registry.gauge("mtlb.resident_entries").set(4)
        hist = registry.histogram("dispatch.run_length", (1, 2))
        for value in (1, 2, 3):
            hist.observe(value)
        text = registry.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_it_events_seen counter" in lines
        assert "repro_it_events_seen 10" in lines
        assert "# TYPE repro_mtlb_resident_entries gauge" in lines
        assert "repro_mtlb_resident_entries 4" in lines
        # Cumulative le buckets: 1 value <=1, 2 values <=2, 3 total.
        assert 'repro_dispatch_run_length_bucket{le="1"} 1' in lines
        assert 'repro_dispatch_run_length_bucket{le="2"} 2' in lines
        assert 'repro_dispatch_run_length_bucket{le="+Inf"} 3' in lines
        assert "repro_dispatch_run_length_sum 6" in lines
        assert "repro_dispatch_run_length_count 3" in lines
        assert text.endswith("\n")

    def test_renders_from_stored_snapshot(self):
        """The exposition works from a plain snapshot dict (no live registry)."""
        registry = MetricsRegistry()
        registry.counter("a.b").inc(2)
        snapshot = registry.snapshot()
        assert prometheus_text(snapshot) == registry.to_prometheus()

    def test_custom_prefix(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(1)
        assert "lba_x 1" in registry.to_prometheus(prefix="lba_")
