"""Unit tests for the repro.obs metrics registry."""

import pytest

from repro.obs import Counter, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_inc_and_add(self):
        counter = Counter("hits", {})
        counter.inc()
        counter.inc(4)
        counter.add(0.5)
        assert counter.value == 5.5
        assert counter.summary() == {"value": 5.5}

    def test_counter_rejects_negative(self):
        counter = Counter("hits", {})
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)
        with pytest.raises(ValueError, match=">= 0"):
            counter.add(-0.1)

    def test_histogram_summary(self):
        hist = Histogram("latency", {})
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.summary() == {"count": 3, "sum": 6.0, "min": 1.0,
                                  "max": 3.0, "mean": 2.0}

    def test_empty_histogram_summary(self):
        assert Histogram("latency", {}).summary() == {"count": 0, "sum": 0.0}


class TestRegistry:
    def test_same_key_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("trained", device="S6")
        b = registry.counter("trained", device="S6")
        assert a is b
        assert len(registry) == 1

    def test_distinct_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("trained", device="S6").inc()
        registry.counter("trained", device="G7").inc(2)
        assert len(registry) == 2
        values = {tuple(c.labels.items()): c.value
                  for c in registry.series("trained")}
        assert values == {(("device", "S6"),): 1, (("device", "G7"),): 2}

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x", device="S6", kind="k")
        b = registry.counter("x", kind="k", device="S6")
        assert a is b

    def test_series_preserves_registration_order(self):
        # Consumers rebuilding legacy outputs fold floats in registration
        # order; sorting here would change FP summation order.
        registry = MetricsRegistry()
        for client in (7, 1, 4):
            registry.counter("busy_seconds", client=client).add(0.1)
        assert [c.labels["client"] for c in registry.series("busy_seconds")] \
            == [7, 1, 4]

    def test_snapshot_is_sorted_and_json_compatible(self):
        import json

        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a", device="S6").inc()
        registry.histogram("lat").observe(2.0)
        snap = registry.snapshot()
        # Deterministic order: sorted by (kind, name, labels).
        assert snap == sorted(snap, key=lambda r: (r["kind"], r["name"]))
        json.dumps(snap)  # must not raise
        counter_row = next(r for r in snap if r["name"] == "a")
        assert counter_row == {"name": "a", "kind": "counter",
                               "labels": {"device": "S6"}, "value": 1}
