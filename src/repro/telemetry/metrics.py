"""The metrics registry: counters, gauges, and streaming histograms.

Where the event bus answers "what happened at t=4.2ms on chip 3", the
registry answers "how much, overall": named counters (monotonic),
gauges (last value), and :class:`~repro.telemetry.histogram.
FixedBucketHistogram` distributions, all snapshotted into a JSON-ready
dict at the end of a run (``RunResult.telemetry``).  Metric objects are
get-or-create by name so call sites stay one-liners; snapshots sort by
name for byte-identical reports.
"""

from __future__ import annotations

from repro.telemetry.histogram import DEFAULT_BOUNDS_US, FixedBucketHistogram


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value", "_pending")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        #: the registry's counter table this counter joins on its first
        #: ``inc`` (see :meth:`MetricsRegistry.bind`); ``None`` once in.
        self._pending: dict[str, Counter] | None = None

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n
        if self._pending is not None:
            self._pending[self.name] = self
            self._pending = None


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
        #: counters handed out by :meth:`bind`, registered or not.
        self._bound: dict[str, Counter] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._bound.get(name) or Counter(name)
            found._pending = None
            self._counters[name] = found
        return found

    def bind(self, name: str) -> Counter:
        """The counter ``name``, for a caller that holds it for the run.

        Unlike :meth:`counter` this does not create the metric: a counter
        not yet registered joins the registry on its first ``inc``, just
        as a ``counter(name).inc()`` at that point would have, so binding
        leaves snapshots unchanged.  A bound counter stays the one
        ``name`` resolves to across :meth:`load_state_dict`.
        """
        found = self._bound.get(name)
        if found is None:
            found = self._counters.get(name)
            if found is None:
                found = Counter(name)
                found._pending = self._counters
            self._bound[name] = found
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
    def state_dict(self) -> dict[str, object]:
        """Checkpoint payload (see :mod:`repro.checkpoint`).

        Histograms serialize their full internals (bounds + bucket
        counts + exact aggregates), not the quantized snapshot, so a
        restored registry keeps observing into the same buckets.
        """
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {
                name: {
                    "bounds": h.bounds,
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in self._histograms.items()
            },
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        for counter in self._bound.values():
            counter.value = 0
            counter._pending = self._counters
        for name, value in state["counters"].items():
            self.counter(name).value = value
        for name, value in state["gauges"].items():
            self.gauge(name).value = value
        for name, payload in state["histograms"].items():
            hist = self.histogram(name, bounds=payload["bounds"])
            hist.counts = list(payload["counts"])
            hist.count = payload["count"]
            hist.total = payload["total"]
            hist.min = payload["min"]
            hist.max = payload["max"]

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
