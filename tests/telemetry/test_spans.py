"""Span tracing: nesting depth, clock capture, the disabled fast path."""

from __future__ import annotations

from repro.telemetry import DISABLED, Telemetry
from repro.telemetry.events import TraceBus
from repro.telemetry.spans import NULL_SPAN, NullTracer, Tracer


def _bus_and_tracer(now):
    bus = TraceBus(clock=lambda: now[0])
    return bus, Tracer(bus)


class TestSpans:
    def test_span_emits_complete_event_with_duration(self):
        now = [100.0]
        bus, tracer = _bus_and_tracer(now)
        with tracer.span("gc", cat="ftl.gc", chip=3):
            now[0] = 140.0
        (event,) = bus.events
        assert event.ph == "X"
        assert event.name == "gc"
        assert event.ts_us == 100.0
        assert event.dur_us == 40.0
        assert event.args == {"chip": 3, "depth": 0}

    def test_nested_spans_record_depth(self):
        now = [0.0]
        bus, tracer = _bus_and_tracer(now)
        with tracer.span("outer", cat="c"):
            assert tracer.depth == 1
            with tracer.span("inner", cat="c"):
                assert tracer.depth == 2
        assert tracer.depth == 0
        # inner exits first, so it is emitted first
        inner, outer = bus.events
        assert (inner.name, inner.args["depth"]) == ("inner", 1)
        assert (outer.name, outer.args["depth"]) == ("outer", 0)

    def test_zero_duration_nesting_survives_frozen_clock(self):
        # the engine dispatches FTL work at one instant: depth is the
        # only nesting signal left, and it must survive
        now = [7.0]
        bus, tracer = _bus_and_tracer(now)
        with tracer.span("a", cat="c"):
            with tracer.span("b", cat="c"):
                pass
        assert all(e.dur_us == 0.0 for e in bus.events)
        assert {e.args["depth"] for e in bus.events} == {0, 1}


class TestDisabledPath:
    def test_null_tracer_hands_out_one_shared_span(self):
        tracer = NullTracer()
        s1 = tracer.span("gc", cat="ftl.gc", chip=1)
        s2 = tracer.span("other", cat="x")
        assert s1 is NULL_SPAN and s2 is NULL_SPAN

    def test_null_span_is_reentrant(self):
        with NULL_SPAN:
            with NULL_SPAN:
                pass

    def test_disabled_singleton_contract(self):
        assert DISABLED.enabled is False
        assert DISABLED.bus is None
        assert DISABLED.tracer.span("x", cat="c") is NULL_SPAN

    def test_enabled_session_contract(self):
        tel = Telemetry(capacity=8)
        assert tel.enabled is True
        with tel.tracer.span("x", cat="c"):
            pass
        assert tel.bus.stats()["retained"] == 1
