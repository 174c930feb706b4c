"""MetricsRegistry: get-or-create semantics and snapshot determinism."""

from __future__ import annotations

import pytest

from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_raises(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("depth")
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_histogram_custom_bounds(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", bounds=(1.0, 2.0))
        assert hist.bounds == (1.0, 2.0)

    def test_snapshot_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("zeta").inc(2)
        reg.counter("alpha").inc()
        reg.gauge("mid").set(7.0)
        reg.histogram("lat").observe(80.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["alpha", "zeta"]
        assert snap["counters"]["zeta"] == 2
        assert snap["gauges"] == {"mid": 7.0}
        assert snap["histograms"]["lat"]["count"] == 1.0
        json.dumps(snap)  # must serialize without a custom encoder

    def test_empty_snapshot(self):
        assert MetricsRegistry().snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
