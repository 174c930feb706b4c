"""Differential oracle: the calendar dispatch against the in-order segment path.

Under the in-order policy (``fifo``) every engine computes each stage's
service window at dispatch and schedules one completion event per
request.  The reference is the former per-stage Segment + DONE event
machinery, kept in ``legacy_inorder.py``.  Both must simulate the same
device: same completion instants, series, counters and report.  The one
open-loop difference is ``queued_segments_peak``: the calendar counts a
stage starting at an arrival's instant as started, so its peak may read
lower, never higher.  Telemetry only observes: a traced calendar run
ends in exactly the state of the untraced one.

The streams are scripted, not rendered by an FTL, so every op kind,
sanitize tag, zero-op request and topology is reachable; integer-us
durations and an integer arrival grid make same-instant ties (arrivals
meeting completions, stage ends meeting stage ends) common.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ftl.request import IoRequest, RequestOp
from repro.sim import ClosedLoopArrivals, FifoPolicy, QueueingEngine, RecordingTiming
from repro.sim.arrivals import ArrivalProcess
from repro.sim.ops import OpKind
from repro.telemetry import Telemetry
from tests.sim.legacy_inorder import LegacyInOrderEngine

_TIMING_CALL = {
    OpKind.READ: "read",
    OpKind.PROGRAM: "program",
    OpKind.ERASE: "erase",
    OpKind.PLOCK: "plock",
    OpKind.BLOCK_LOCK: "block_lock",
    OpKind.SCRUB: "scrub",
}


class _ScriptedDevice:
    """Device stand-in: request ``lpa`` i schedules script[i]'s flash ops."""

    def __init__(self, timing, script, telemetry):
        self.ftl = SimpleNamespace(timing=timing, checker=None, observer=None)
        self.telemetry = telemetry
        self._script = script

    def submit(self, request):
        timing = self.ftl.timing
        for kind, chip, sanitize in self._script[request.lpa]:
            schedule = getattr(timing, _TIMING_CALL[kind])
            if sanitize:
                with timing.sanitize_region():
                    schedule(chip)
            else:
                schedule(chip)


class _GridArrivals(ArrivalProcess):
    """Open-loop arrivals whose gaps cycle through whole microseconds."""

    name = "grid"

    def __init__(self, gaps):
        self._gaps = gaps
        self._drawn = 0

    def interarrival_us(self):
        gap = self._gaps[self._drawn % len(self._gaps)]
        self._drawn += 1
        return float(gap)


@st.composite
def scenarios(draw):
    n_channels = draw(st.integers(1, 3))
    chips_per_channel = draw(st.integers(1, 3))
    n_chips = n_channels * chips_per_channel
    durations = {
        "t_read_us": draw(st.integers(1, 4)),
        "t_prog_us": draw(st.integers(1, 8)),
        "t_erase_us": draw(st.integers(1, 12)),
        "t_plock_us": draw(st.integers(1, 4)),
        "t_block_lock_us": draw(st.integers(1, 6)),
        "t_scrub_us": draw(st.integers(1, 4)),
        "t_xfer_us": draw(st.integers(1, 3)),
    }
    op = st.tuples(
        st.sampled_from(list(OpKind)),
        st.integers(0, n_chips - 1),
        st.booleans(),
    )
    script = draw(st.lists(st.lists(op, max_size=5), min_size=1, max_size=40))
    n = len(script)
    kinds = draw(st.lists(st.sampled_from(list(RequestOp)), min_size=n, max_size=n))
    if draw(st.booleans()):
        arrivals = ("closed", draw(st.integers(1, 32)))
    else:
        arrivals = ("grid", draw(st.lists(st.integers(0, 6), min_size=1, max_size=8)))
    stops = sorted(set(draw(st.lists(st.integers(1, n), max_size=3))) | {n})
    return {
        "topology": (n_channels, chips_per_channel),
        "durations": {k: float(v) for k, v in durations.items()},
        "script": script,
        "kinds": kinds,
        "arrivals": arrivals,
        "steady_start": draw(st.integers(0, n)),
        "stops": stops,
    }


def _run(scenario, traced, engine_cls=QueueingEngine):
    n_channels, chips_per_channel = scenario["topology"]
    timing = RecordingTiming(
        n_channels=n_channels,
        chips_per_channel=chips_per_channel,
        **scenario["durations"],
    )
    device = _ScriptedDevice(
        timing, scenario["script"], Telemetry() if traced else None
    )
    requests = [IoRequest(op, i) for i, op in enumerate(scenario["kinds"])]
    mode, param = scenario["arrivals"]
    arrivals = ClosedLoopArrivals(param) if mode == "closed" else _GridArrivals(param)
    engine = engine_cls(
        device, requests, arrivals, FifoPolicy(),
        steady_start=scenario["steady_start"],
    )
    assert engine._calendar is (engine_cls is QueueingEngine)
    completions = {}
    complete = engine._complete

    def spy(inflight):
        completions[inflight.index] = engine.clock.now_us
        complete(inflight)

    engine._complete = spy
    for stop in scenario["stops"]:
        engine.run_window(stop)
        engine.assert_quiescent()
    return engine, completions, engine.state_dict()


def _sorted_latency(state):
    # latency samples agree as multisets; their order within one
    # simulated instant is the order completions are popped, which the
    # two paths reach differently
    return {**state, "latency": {op: sorted(v) for op, v in state["latency"].items()}}


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_calendar_matches_segment_path(scenario):
    calendar, cal_done, cal_state = _run(scenario, traced=False)
    segments, seg_done, seg_state = _run(
        scenario, traced=False, engine_cls=LegacyInOrderEngine
    )

    assert cal_done == seg_done
    assert len(cal_done) == len(scenario["script"])
    for series in ("depth", "sanitize_backlog"):
        cal, seg = getattr(calendar, series), getattr(segments, series)
        assert (cal.times_us, cal.levels) == (seg.times_us, seg.levels)

    cal_state, seg_state = _sorted_latency(cal_state), _sorted_latency(seg_state)
    cal_report = calendar._report().to_dict()
    seg_report = segments._report().to_dict()
    if scenario["arrivals"][0] == "grid":
        # open loop: a stage starting at an arrival's instant counts as
        # started on the calendar, still queued on the segment path
        cal_peak = cal_state.pop("queued_segments_peak")
        seg_peak = seg_state.pop("queued_segments_peak")
        assert cal_peak <= seg_peak
        assert cal_report.pop("queued_segments_peak") == cal_peak
        assert seg_report.pop("queued_segments_peak") == seg_peak
    assert cal_state == seg_state
    assert cal_report == seg_report


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_tracing_leaves_calendar_state_alone(scenario):
    untraced, untraced_done, untraced_state = _run(scenario, traced=False)
    traced, traced_done, traced_state = _run(scenario, traced=True)

    assert traced_done == untraced_done
    # raw latency lists, unsorted: the same code ran in the same order
    assert traced_state == untraced_state
    assert traced._report().to_dict() == untraced._report().to_dict()
    spans = [e for e in traced.ssd.telemetry.bus.events if e.cat == "sim.service"]
    assert len(spans) == traced._report().events - len(scenario["script"])
