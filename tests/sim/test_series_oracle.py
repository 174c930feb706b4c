"""Differential oracle: the columnar step series against the list-based one.

Random record streams -- repeated levels that coalesce, same-instant
transitions that overwrite the last point, and overwrites back to the
previous level that remove it -- are fed to the production series
(:class:`~repro.sim.metrics.StepSeries` for float levels,
:class:`~repro.sim.metrics.DepthSeries` for integer ones) and to the
former list-based classes kept in ``legacy_series.py``.  Both must agree
on ``len``, ``downsample``, ``peak``, ``mean_level`` and ``state_dict``,
compared as JSON text so an integer level that came back as ``16.0``
would fail; a JSON round trip through ``load_state_dict`` must resume
to the same answers.  A second test bounds what the columns cost.
"""

from __future__ import annotations

import json
import tracemalloc
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import DepthSeries, StepSeries
from tests.sim.legacy_series import DepthSeries as LegacyDepthSeries
from tests.sim.legacy_series import WorkSeries as LegacyWorkSeries

#: time steps: 0.0 makes a same-instant transition
STEPS = st.one_of(
    st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.5)),
    st.floats(0.0, 1e6, allow_nan=False),
)
#: a few repeated values make coalescing and re-coalescing common
INT_LEVELS = st.one_of(st.integers(0, 3), st.integers(-(1 << 62), 1 << 62))
FLOAT_LEVELS = st.one_of(
    st.sampled_from((0.0, 100.0, 250.5)),
    st.floats(-1e9, 1e9, allow_nan=False),
)
KINDS = {
    "float": (StepSeries, LegacyWorkSeries, FLOAT_LEVELS),
    "int": (DepthSeries, LegacyDepthSeries, INT_LEVELS),
}


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    levels = KINDS[kind][2]
    streams = []
    for _ in range(2):  # before and after a checkpoint round trip
        steps = draw(st.lists(st.tuples(STEPS, levels), max_size=120))
        streams.append(steps)
    max_points = draw(st.integers(2, 12))
    untils = draw(st.lists(st.floats(-1.0, 1e8, allow_nan=False), max_size=3))
    return kind, streams, max_points, untils


def play(series, legacy, steps, clock):
    for dt, level in steps:
        clock += dt
        series.record(clock, level)
        legacy.record(clock, level)
    return clock


def observe(series, max_points, untils):
    return json.dumps(
        {
            "len": len(series),
            "downsample": series.downsample(),
            "downsample_small": series.downsample(max_points),
            "peak": series.peak,
            "mean_level": [series.mean_level(u) for u in untils],
            "state": series.state_dict(),
        }
    )


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_columnar_series_matches_list_series(scenario):
    kind, (before, after), max_points, untils = scenario
    new_cls, legacy_cls, _ = KINDS[kind]
    series, legacy = new_cls(), legacy_cls()
    clock = play(series, legacy, before, 0.0)
    untils = [*untils, clock, clock + 7.5]
    assert observe(series, max_points, untils) == observe(
        legacy, max_points, untils
    )

    # resume both from the JSON checkpoint payload and keep recording
    payload = json.loads(json.dumps(series.state_dict()))
    series, legacy = new_cls(), legacy_cls()
    series.load_state_dict(payload)
    legacy.load_state_dict(payload)
    assert isinstance(series.times_us, array)
    assert isinstance(series.levels, array)
    clock = play(series, legacy, after, clock)
    untils = [*untils, clock + 1.0]
    assert observe(series, max_points, untils) == observe(
        legacy, max_points, untils
    )


def test_columns_cost_sixteen_bytes_a_point_and_downsample_is_small():
    n = 200_000
    for series, level in ((StepSeries(), float), (DepthSeries(), int)):
        for i in range(n):
            series.record(float(i), level(i % 7))
        assert len(series) == n
        assert series.times_us.itemsize + series.levels.itemsize <= 16
        tracemalloc.start()
        try:
            picked = series.downsample()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(picked) == 256
        assert peak < 64 * 1024, f"downsample allocated {peak} B"
