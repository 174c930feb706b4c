"""Reference model for the differential test: the list-based step series.

A verbatim copy of the original ``DepthSeries`` and ``WorkSeries``, which
kept every point as boxed Python numbers in two lists and downsampled by
zipping all of them into pairs first.  They are kept only as the oracle
``test_series_oracle.py`` compares the columnar production series
(:class:`repro.sim.metrics.StepSeries` and ``DepthSeries``) against.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DepthSeries:
    """Time series of an integer level (queue depth, requests in flight).

    Records a point whenever the level changes; consecutive same-level
    points coalesce.  ``downsample`` bounds report size.
    """

    times_us: list[float] = field(default_factory=list)
    levels: list[int] = field(default_factory=list)

    def record(self, time_us: float, level: int) -> None:
        if self.levels and self.levels[-1] == level:
            return
        if self.times_us and time_us == self.times_us[-1]:
            # same-instant transition: keep only the final level
            self.levels[-1] = level
            self._recoalesce()
            return
        self.times_us.append(time_us)
        self.levels.append(level)

    def _recoalesce(self) -> None:
        if len(self.levels) >= 2 and self.levels[-1] == self.levels[-2]:
            self.times_us.pop()
            self.levels.pop()

    def __len__(self) -> int:
        return len(self.times_us)

    @property
    def peak(self) -> int:
        return max(self.levels, default=0)

    def mean_level(self, until_us: float) -> float:
        """Time-weighted average level over [0, until_us]."""
        if until_us <= 0.0 or not self.times_us:
            return 0.0
        total = 0.0
        for i, (t, level) in enumerate(zip(self.times_us, self.levels)):
            end = self.times_us[i + 1] if i + 1 < len(self.times_us) else until_us
            end = min(end, until_us)
            if end > t:
                total += (end - t) * level
        return total / until_us

    def state_dict(self) -> dict[str, list[float] | list[int]]:
        """Checkpoint payload (see :mod:`repro.checkpoint`)."""
        return {"times_us": list(self.times_us), "levels": list(self.levels)}

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.times_us = list(state["times_us"])
        self.levels = list(state["levels"])

    def downsample(self, max_points: int = 256) -> list[tuple[float, int]]:
        """At most ``max_points`` (time, level) pairs, ends preserved."""
        if max_points < 2:
            raise ValueError("max_points must be >= 2")
        points = list(zip(self.times_us, self.levels))
        if len(points) <= max_points:
            return points
        step = (len(points) - 1) / (max_points - 1)
        picked = [points[round(i * step)] for i in range(max_points - 1)]
        picked.append(points[-1])
        return picked


@dataclass
class WorkSeries:
    """Time series of a float level (queued work in microseconds).

    The float sibling of :class:`DepthSeries`: a step function sampled
    whenever the level changes.  Used for the engine's sanitization
    backlog -- the flash-time of sanitization-class operations (lock
    pulses, scrubs, erases) queued or deferred but not yet serviced --
    where levels are sums of op durations, not integer counts.
    """

    times_us: list[float] = field(default_factory=list)
    levels: list[float] = field(default_factory=list)

    def record(self, time_us: float, level: float) -> None:
        if self.levels and self.levels[-1] == level:
            return
        if self.times_us and time_us == self.times_us[-1]:
            # same-instant transition: keep only the final level
            self.levels[-1] = level
            if len(self.levels) >= 2 and self.levels[-1] == self.levels[-2]:
                self.times_us.pop()
                self.levels.pop()
            return
        self.times_us.append(time_us)
        self.levels.append(level)

    def __len__(self) -> int:
        return len(self.times_us)

    @property
    def peak(self) -> float:
        return max(self.levels, default=0.0)

    def mean_level(self, until_us: float) -> float:
        """Time-weighted average level over [0, until_us]."""
        if until_us <= 0.0 or not self.times_us:
            return 0.0
        total = 0.0
        for i, (t, level) in enumerate(zip(self.times_us, self.levels)):
            end = self.times_us[i + 1] if i + 1 < len(self.times_us) else until_us
            end = min(end, until_us)
            if end > t:
                total += (end - t) * level
        return total / until_us

    def state_dict(self) -> dict[str, list[float]]:
        """Checkpoint payload (see :mod:`repro.checkpoint`)."""
        return {"times_us": list(self.times_us), "levels": list(self.levels)}

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.times_us = list(state["times_us"])
        self.levels = list(state["levels"])

    def downsample(self, max_points: int = 256) -> list[tuple[float, float]]:
        """At most ``max_points`` (time, level) pairs, ends preserved."""
        if max_points < 2:
            raise ValueError("max_points must be >= 2")
        points = list(zip(self.times_us, self.levels))
        if len(points) <= max_points:
            return points
        step = (len(points) - 1) / (max_points - 1)
        picked = [points[round(i * step)] for i in range(max_points - 1)]
        picked.append(points[-1])
        return picked
