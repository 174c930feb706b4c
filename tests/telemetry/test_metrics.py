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


class TestBoundCounters:
    """``bind`` hands out a counter without creating the metric."""

    def test_registered_on_first_increment(self):
        reg = MetricsRegistry()
        bound = reg.bind("erases")
        assert reg.snapshot()["counters"] == {}
        assert reg.state_dict()["counters"] == {}
        bound.inc(0)
        assert reg.state_dict()["counters"] == {"erases": 0}
        bound.inc(2)
        assert reg.counter("erases") is bound
        assert reg.snapshot()["counters"] == {"erases": 2}

    def test_counter_before_first_increment_is_the_bound_one(self):
        reg = MetricsRegistry()
        bound = reg.bind("programs")
        assert reg.counter("programs") is bound
        assert reg.bind("programs") is bound

    def test_survives_load_state_dict(self):
        reg = MetricsRegistry()
        kept, absent = reg.bind("programs"), reg.bind("erases")
        kept.inc(3)
        absent.inc(5)
        reg.load_state_dict(
            {"counters": {"programs": 7}, "gauges": {}, "histograms": {}}
        )
        assert reg.snapshot()["counters"] == {"programs": 7}
        kept.inc()
        assert reg.snapshot()["counters"] == {"programs": 8}
        absent.inc()
        assert reg.snapshot()["counters"] == {"erases": 1, "programs": 8}

    def test_bridge_snapshot_matches_unbound_lookups(self):
        """The observer bridge's bound counters report what per-event
        ``counter(name).inc()`` calls did: only what was counted."""
        from repro.telemetry import Telemetry
        from repro.telemetry.bridge import TelemetryObserver

        tel = Telemetry()
        bridge = TelemetryObserver(tel)
        assert tel.snapshot()["counters"] == {}
        bridge.on_program(0, 0, None, True)
        bridge.on_sanitize(0, "plock")
        bridge.on_sanitize(1, "plock")
        assert tel.snapshot()["counters"] == {
            "ftl.programs": 1,
            "ftl.sanitized.plock": 2,
        }
        restored = Telemetry()
        restored_bridge = TelemetryObserver(restored)
        restored.load_state_dict(tel.state_dict(), [tel.bus.segment()])
        restored_bridge.on_program(1, 1, None, False)
        bridge.on_program(1, 1, None, False)
        assert restored.snapshot() == tel.snapshot()
        assert restored.snapshot()["counters"]["ftl.programs"] == 2
