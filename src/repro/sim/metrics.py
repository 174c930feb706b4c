"""Tail-latency accounting and queue-depth time series.

The point of the closed-loop engine is the distribution, not the mean:
one erSSD relocation storm shows up as a p99.9 spike that average IOPS
hides entirely.  Percentiles use the nearest-rank method (deterministic,
no interpolation ambiguity across platforms), and every summary is a
plain dict of floats so reports serialize byte-identically for the
same-seed determinism guarantee.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, islice

from repro.ftl.request import RequestOp

# the shared nearest-rank implementation and report-order percentile
# list live in repro.telemetry.histogram; re-exported here because the
# sim package's public API predates the telemetry layer.
from repro.telemetry.histogram import (
    PERCENTILES,
    percentile,
    summarize,
)

__all__ = [
    "PERCENTILES",
    "percentile",
    "LatencyRecorder",
    "DepthSeries",
    "StepSeries",
    "spread_indices",
]


@dataclass
class LatencyRecorder:
    """End-to-end request latency samples, grouped by request class."""

    samples: dict[RequestOp, array] = field(
        default_factory=lambda: {op: array("d") for op in RequestOp}
    )

    def add(self, op: RequestOp, latency_us: float) -> None:
        if latency_us < 0.0:
            raise ValueError("latency cannot be negative")
        self.samples[op].append(latency_us)

    def count(self, op: RequestOp | None = None) -> int:
        if op is not None:
            return len(self.samples[op])
        return sum(len(v) for v in self.samples.values())

    # ------------------------------------------------------------------
    def summary_for(self, op: RequestOp | None) -> dict[str, float]:
        if op is not None:
            return summarize(self.samples[op])
        data = array("d")
        for values in self.samples.values():
            data.extend(values)
        return summarize(data)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-class and combined percentile report (JSON-ready)."""
        out = {op.value: self.summary_for(op) for op in RequestOp}
        out["all"] = self.summary_for(None)
        return out

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, list[float]]:
        """Checkpoint payload, keyed by the op's string value."""
        return {op.value: values.tolist() for op, values in self.samples.items()}

    def load_state_dict(self, state: dict[str, list[float]]) -> None:
        self.samples = {op: array("d", state.get(op.value, ())) for op in RequestOp}


def spread_indices(n: int, max_points: int) -> range | list[int]:
    """Indices of at most ``max_points`` of ``n`` samples, evenly spread.

    Both ends are kept; a series that already fits keeps every index.
    """
    if max_points < 2:
        raise ValueError("max_points must be >= 2")
    if n <= max_points:
        return range(n)
    step = (n - 1) / (max_points - 1)
    picked = [round(i * step) for i in range(max_points - 1)]
    picked.append(n - 1)
    return picked


class StepSeries:
    """Step function of a float level (queued work in microseconds).

    A point is recorded whenever the level changes; consecutive
    same-level points coalesce, and a same-instant transition keeps only
    the final level.  The engine's sanitization backlog -- the
    flash-time of sanitization-class operations (lock pulses, scrubs,
    erases) queued or deferred but not yet serviced -- is one, where
    levels are sums of op durations.  Points live in two typed columns,
    ``times_us`` (``array("d")``) and ``levels``
    (``array(level_typecode)``): 16 bytes a point, where lists of boxed
    numbers cost ~64.  ``downsample`` bounds report size.
    """

    #: ``array`` typecode of ``levels``: ``"d"`` float, ``"q"`` integer.
    level_typecode = "d"

    def __init__(self) -> None:
        self.times_us = array("d")
        self.levels = array(self.level_typecode)

    def record(self, time_us: float, level: float) -> None:
        times, levels = self.times_us, self.levels
        if levels and levels[-1] == level:
            return
        if times and time_us == times[-1]:
            # same-instant transition: keep only the final level, and drop
            # the point when that returns to the level before it
            if len(levels) >= 2 and levels[-2] == level:
                times.pop()
                levels.pop()
            else:
                levels[-1] = level
            return
        times.append(time_us)
        levels.append(level)

    def __len__(self) -> int:
        return len(self.times_us)

    @property
    def peak(self) -> float:
        return max(self.levels, default=0 if self.level_typecode == "q" else 0.0)

    def mean_level(self, until_us: float) -> float:
        """Time-weighted average level over [0, until_us]."""
        times = self.times_us
        if until_us <= 0.0 or not times:
            return 0.0
        total = 0.0
        ends = chain(islice(times, 1, None), (until_us,))
        for t, end, level in zip(times, ends, self.levels):
            end = min(end, until_us)
            if end > t:
                total += (end - t) * level
        return total / until_us

    def state_dict(self) -> dict[str, list[float] | list[int]]:
        """Checkpoint payload (see :mod:`repro.checkpoint`)."""
        return {"times_us": self.times_us.tolist(), "levels": self.levels.tolist()}

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.times_us = array("d", state["times_us"])
        self.levels = array(self.level_typecode, state["levels"])

    def downsample(self, max_points: int = 256) -> list[tuple[float, float]]:
        """At most ``max_points`` (time, level) pairs, ends preserved."""
        times, levels = self.times_us, self.levels
        return [(times[j], levels[j]) for j in spread_indices(len(times), max_points)]


class DepthSeries(StepSeries):
    """Step function of an integer level (queue depth, requests in flight)."""

    level_typecode = "q"
