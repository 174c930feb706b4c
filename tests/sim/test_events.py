"""Engine event-list ordering and simulated clock invariants."""

import heapq
from types import SimpleNamespace

import pytest

from repro.sim import (
    ClosedLoopArrivals,
    FifoPolicy,
    QueueingEngine,
    ReadPriorityPolicy,
    RecordingTiming,
)
from repro.ftl.request import IoRequest, RequestOp
from repro.sim.events import SimClock


class _Device:
    """Device stand-in: request ``lpa`` i reads ``reads[i]`` times and
    erases ``erases[i]`` times on chip 0; submission order is logged."""

    def __init__(self, reads, erases):
        timing = RecordingTiming(n_channels=1, chips_per_channel=2)
        self.ftl = SimpleNamespace(timing=timing, checker=None, observer=None)
        self.telemetry = None
        self.reads, self.erases = reads, erases
        self.submitted = []

    def submit(self, request):
        self.submitted.append(request.lpa)
        for _ in range(self.reads[request.lpa]):
            self.ftl.timing.read(0)
        for _ in range(self.erases[request.lpa]):
            self.ftl.timing.erase(0)


def _engine(reads, erases, policy, queue_depth):
    device = _Device(reads, erases)
    requests = [IoRequest(RequestOp.READ, i) for i in range(len(reads))]
    engine = QueueingEngine(
        device, requests, ClosedLoopArrivals(queue_depth), policy
    )
    return engine, device


def _pop(engine):
    """Take the earliest event off the engine's heap, as ``run_window``
    does: a ``(time_us, seq, kind, payload)`` tuple."""
    return heapq.heappop(engine._events)


class TestEventHeap:
    """The engine-owned event heap, driven through ``_schedule``."""

    def test_pops_in_time_order(self):
        engine, _ = _engine([0], [0], FifoPolicy(), queue_depth=1)
        engine._schedule(30.0, "a", None)
        engine._schedule(10.0, "b", None)
        engine._schedule(20.0, "c", None)
        assert [_pop(engine)[2] for _ in range(3)] == ["b", "c", "a"]

    def test_same_time_events_pop_in_push_order(self):
        engine, _ = _engine([0], [0], FifoPolicy(), queue_depth=1)
        for i in range(50):
            engine._schedule(5.0, "tie", i)
        assert [_pop(engine)[3] for _ in range(50)] == list(range(50))

    def test_tie_break_is_stable_across_interleaved_times(self):
        engine, _ = _engine([0], [0], FifoPolicy(), queue_depth=1)
        engine._schedule(10.0, "first", None)
        engine._schedule(0.0, "early", None)
        engine._schedule(10.0, "second", None)
        engine._schedule(10.0, "third", None)
        kinds = [_pop(engine)[2] for _ in range(4)]
        assert kinds == ["early", "first", "second", "third"]

    def test_seq_assigned_monotonically(self):
        engine, _ = _engine([0], [0], FifoPolicy(), queue_depth=1)
        engine._schedule(1.0, "a", None)
        engine._schedule(1.0, "b", None, count=3)
        engine._schedule(1.0, "c", None)
        a, b, c = (_pop(engine) for _ in range(3))
        assert (a[2], b[2], c[2]) == ("a", "b", "c")
        assert b[1] == a[1] + 1
        # a calendar completion stands for ``count`` events
        assert c[1] == b[1] + 3

    def test_pushed_counts_all_events_ever(self):
        engine, _ = _engine([0], [0], FifoPolicy(), queue_depth=1)
        engine._schedule(1.0, "a", None)
        engine._schedule(2.0, "b", None)
        _pop(engine)
        assert engine._events_pushed == 2
        assert len(engine._events) == 1

    def test_negative_time_rejected(self):
        engine, _ = _engine([0], [0], FifoPolicy(), queue_depth=1)
        with pytest.raises(ValueError, match="non-negative"):
            engine._schedule(-1.0, "bad", None)
        assert engine._events_pushed == 0

    def test_pop_empty_raises(self):
        # a finished run leaves the heap drained
        engine, _ = _engine([1, 0], [0, 1], FifoPolicy(), queue_depth=2)
        engine.run()
        with pytest.raises(IndexError):
            _pop(engine)

    def test_next_time_us(self):
        engine, _ = _engine([0], [0], FifoPolicy(), queue_depth=1)
        assert not engine._events
        engine._schedule(7.0, "a", None)
        engine._schedule(3.0, "b", None)
        assert engine._events[0][0] == 3.0

    def test_bool_and_len(self):
        engine, _ = _engine([0], [0], FifoPolicy(), queue_depth=1)
        assert not engine._events
        engine.assert_quiescent()
        engine._schedule(0.0, "a", None)
        assert engine._events and len(engine._events) == 1
        with pytest.raises(RuntimeError, match="events pending"):
            engine.assert_quiescent()


@pytest.mark.parametrize("policy", [FifoPolicy, ReadPriorityPolicy])
class TestEventList:
    def test_same_instant_events_fire_in_scheduling_order(self, policy):
        # zero-op requests complete at dispatch, so all twelve arrivals
        # land at t=0: the four closed-loop seeds, then one per completion
        engine, device = _engine([0] * 12, [0] * 12, policy(), queue_depth=4)
        report = engine.run()
        assert device.submitted == list(range(12))
        assert report.sim_elapsed_us == 0.0

    def test_negative_event_time_rejected(self, policy):
        engine, _ = _engine([0], [0], policy(), queue_depth=1)
        with pytest.raises(ValueError, match="non-negative"):
            engine._schedule(-1.0, "arrival", 0)
        assert engine._events == []

    def test_events_count_every_pushed_event(self, policy):
        # one arrival per request, two stages per read, one per erase
        reads, erases = [2, 0, 1, 3], [1, 0, 0, 2]
        engine, _ = _engine(reads, erases, policy(), queue_depth=2)
        report = engine.run()
        assert report.events == 4 + 2 * sum(reads) + sum(erases)
        assert engine.state_dict()["heap_pushed"] == report.events


class TestSimClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimClock()
        assert clock.now_us == 0.0
        clock.advance_to(12.5)
        assert clock.now_us == 12.5

    def test_advance_to_same_time_is_fine(self):
        clock = SimClock()
        clock.advance_to(5.0)
        clock.advance_to(5.0)
        assert clock.now_us == 5.0

    def test_backwards_movement_raises(self):
        clock = SimClock()
        clock.advance_to(10.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(9.999)
