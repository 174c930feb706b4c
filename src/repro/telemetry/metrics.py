"""The metrics registry: counters, gauges, and streaming histograms.

Where the event bus answers "what happened at t=4.2ms on chip 3", the
registry answers "how much, overall": named counters (monotonic),
gauges (last value), and :class:`~repro.telemetry.histogram.
FixedBucketHistogram` distributions, all snapshotted into one
JSON-ready dict (the fleet report's ``"metrics"``, the aging report's
``"gauges"``).  Metric objects are get-or-create by name so call sites
stay one-liners; snapshots sort by name for byte-identical reports.
"""

from __future__ import annotations

from repro.telemetry.histogram import DEFAULT_BOUNDS_US, FixedBucketHistogram


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """Last-written level (queue depth, reserve blocks, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class MetricsRegistry:
    """Named metric store with get-or-create accessors."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, FixedBucketHistogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS_US
    ) -> FixedBucketHistogram:
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = FixedBucketHistogram(bounds)
        return found

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """All metrics as one sorted, JSON-ready dict."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        }
