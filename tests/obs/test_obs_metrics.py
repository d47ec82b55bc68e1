"""Metrics registry: counters, gauges, histograms, snapshots."""

import threading

import pytest

from repro.obs.metrics import (DEFAULT_BOUNDS, Counter, Gauge, Histogram,
                               MetricsRegistry)


class TestCounter:
    def test_labeled_series_accumulate(self):
        counter = Counter("requests_total")
        counter.inc(op="compile")
        counter.inc(2, op="compile")
        counter.inc(op="ping")
        assert counter.value(op="compile") == 3
        assert counter.value(op="ping") == 1
        assert counter.value(op="absent") == 0
        assert counter.total() == 4

    def test_total_over_a_partial_label_set(self):
        counter = Counter("requests_total")
        counter.inc(op="compile", outcome="ok")
        counter.inc(2, op="compile", outcome="error")
        counter.inc(op="ping", outcome="error")
        assert counter.total(outcome="error") == 3
        assert counter.total(op="compile") == 3
        assert counter.total(op="ping", outcome="ok") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_unlabeled_series(self):
        counter = Counter("c")
        counter.inc(5)
        assert counter.value() == 5
        assert counter.series() == {"": 5}


class TestGauge:
    def test_add_returns_new_value_and_max_with_is_sticky(self):
        depth = Gauge("depth")
        high = Gauge("high_water")
        assert depth.add(3) == 3
        high.max_with(3)
        assert depth.add(-2) == 1
        high.max_with(1)
        assert depth.value() == 1
        assert high.value() == 3

    def test_set(self):
        gauge = Gauge("g")
        gauge.set(7.5)
        assert gauge.value() == 7.5


class TestHistogram:
    def test_empty_percentile_is_none(self):
        assert Histogram("h").percentile(0.5) is None
        assert Histogram("h", exact=True).percentile(0.5) is None

    def test_exact_mode_nearest_rank(self):
        hist = Histogram("h", exact=True)
        for value in [1.0, 2.0, 3.0, 4.0]:
            hist.record(value)
        assert hist.percentile(0.50) == 2.0
        assert hist.percentile(0.99) == 4.0
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(10.0)
        assert hist.mean() == pytest.approx(2.5)

    def test_bucketed_percentile_brackets_the_value(self):
        hist = Histogram("h")
        for _ in range(100):
            hist.record(0.010)
        p50 = hist.percentile(0.50)
        # Bucketed answer: the covering bucket's upper bound.
        assert 0.010 <= p50 <= 0.010 * 1.35

    def test_tail_quantile_lands_in_the_tail(self):
        hist = Histogram("h")
        for _ in range(99):
            hist.record(0.001)
        hist.record(1.0)                     # one 1 s outlier in 100
        assert hist.percentile(0.50) < 0.005
        assert hist.percentile(0.99) < 0.005     # 99/100 are 1 ms
        assert hist.percentile(0.999) >= 1.0     # the outlier's bucket

    def test_out_of_range_samples_still_count(self):
        hist = Histogram("h")
        hist.record(10_000.0)                # beyond the last finite bound
        assert hist.count() == 1
        assert hist.percentile(0.5) is not None

    def test_labeled_series(self):
        hist = Histogram("h", exact=True)
        hist.record(0.001, op="ping")
        hist.record(1.0, op="compile")
        assert hist.count(op="ping") == 1
        assert hist.percentile(0.5, op="compile") == 1.0
        labelsets = hist.labelsets()
        assert {"op": "ping"} in labelsets
        assert {"op": "compile"} in labelsets

    def test_default_bounds_are_a_ladder(self):
        assert DEFAULT_BOUNDS[0] == pytest.approx(0.00005)
        assert DEFAULT_BOUNDS[-1] == float("inf")
        for lo, hi in zip(DEFAULT_BOUNDS, DEFAULT_BOUNDS[1:-1]):
            assert hi == pytest.approx(lo * 1.35)

    def test_thread_safety_of_totals(self):
        hist = Histogram("h")

        def pound():
            for _ in range(1000):
                hist.record(0.001)

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count() == 4000


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", "help")
        b = registry.counter("hits")
        assert a is b

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", "a counter").inc(2, op="go")
        registry.gauge("g").set(1.5)
        registry.histogram("h", exact=True).record(0.5)
        snap = registry.snapshot()
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["series"] == {"op=go": 2}
        assert snap["g"]["kind"] == "gauge"
        assert snap["h"]["kind"] == "histogram"
        series = snap["h"]["series"][""]
        assert series["count"] == 1
        assert series["p50"] == 0.5

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.names() == []
