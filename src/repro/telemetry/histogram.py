"""Shared percentile math, per-request sample logs and fixed-bucket histograms.

One nearest-rank implementation serves every consumer -- the
per-request sample logs (:class:`SampleLog`: the engine's latency
recorder and the per-request work of
:func:`repro.analysis.latency.request_work`) and the tail-latency tables
(:mod:`repro.analysis.latency`) -- so a percentile means the same thing
in every report.  Nearest-rank is deliberate: it is deterministic, has
no interpolation ambiguity across platforms, and returns an actually
observed sample, all of which the byte-identical-report guarantee
depends on.

:class:`FixedBucketHistogram` is the streaming companion for the metrics
registry: O(1) memory regardless of sample count, with percentile
*estimates* quantized to fixed bucket upper bounds.  Exact count, sum,
min, and max are kept alongside, so rates and means stay exact.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable
from enum import Enum
from math import ceil

#: the percentiles every latency/work summary reports, in report order.
PERCENTILES: tuple[tuple[str, float], ...] = (
    ("p50_us", 50.0),
    ("p95_us", 95.0),
    ("p99_us", 99.0),
    ("p999_us", 99.9),
)

#: default bucket upper bounds (microseconds), log-spaced to cover one
#: flash read (~50 us) through a multi-erase relocation storm (~1 s).
DEFAULT_BOUNDS_US: tuple[float, ...] = (
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0,
    100_000.0, 200_000.0, 500_000.0, 1_000_000.0,
)


def percentile(sorted_data: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted data (0 for empty).

    Canonical nearest rank: ``ceil(q/100 * N) - 1`` (0-indexed), clamped
    to the valid range.  The old ``round()``-based rank used banker's
    rounding on ``q/100 * (N-1)``, which is non-canonical and
    non-monotonic in the sample count (p50 of 4 samples picked the
    *upper* neighbor, p50 of 6 the lower).  The ceil rule is the
    textbook definition: the smallest sample with at least ``q`` percent
    of the data at or below it.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    n = len(sorted_data)
    if not n:
        return 0.0
    rank = max(0, min(n - 1, ceil(q / 100.0 * n) - 1))
    return sorted_data[rank]


def summarize(data: Iterable[float]) -> dict[str, float]:
    """count/mean/min/:data:`PERCENTILES`/max of unsorted samples.

    Same key set as :meth:`FixedBucketHistogram.snapshot`, with the same
    empty-input semantics: when ``count`` is 0 every other field reads
    0.0 and carries no information -- consumers must gate on ``count``
    (a real 0 us minimum is distinguishable only that way).
    """
    ordered = sorted(data)
    out: dict[str, float] = {
        "count": float(len(ordered)),
        "mean_us": (sum(ordered) / len(ordered)) if ordered else 0.0,
        "min_us": ordered[0] if ordered else 0.0,
    }
    for label, q in PERCENTILES:
        out[label] = percentile(ordered, q)
    out["max_us"] = ordered[-1] if ordered else 0.0
    return out


class SampleLog:
    """Exact per-request samples, one ``array("d")`` column per class.

    The engine's end-to-end request latencies and a study's
    per-request flash work (:func:`repro.analysis.latency.request_work`)
    are each one of these, keyed by :class:`~repro.ftl.request.RequestOp`;
    the classes are passed in, so this layer imports nothing above it.
    Summaries go through :func:`summarize`, and a checkpoint stores the
    engine's columns as lists keyed by the class's string value.
    """

    def __init__(self, classes: Iterable[Enum]) -> None:
        self.samples: dict[Enum, array] = {op: array("d") for op in classes}

    def add(self, op: Enum, value_us: float) -> None:
        if value_us < 0.0:
            raise ValueError("a sample cannot be negative")
        self.samples[op].append(value_us)

    def count(self, op: Enum | None = None) -> int:
        if op is not None:
            return len(self.samples[op])
        return sum(len(v) for v in self.samples.values())

    def summary_for(self, op: Enum | None) -> dict[str, float]:
        """:func:`summarize` of one class, or of every class for None."""
        if op is not None:
            return summarize(self.samples[op])
        data = array("d")
        for values in self.samples.values():
            data.extend(values)
        return summarize(data)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-class and combined (``"all"``) report, JSON-ready."""
        out = {op.value: self.summary_for(op) for op in self.samples}
        out["all"] = self.summary_for(None)
        return out

    def state_dict(self) -> dict[str, list[float]]:
        """Checkpoint payload, keyed by the class's string value."""
        return {op.value: values.tolist() for op, values in self.samples.items()}

    def load_state_dict(self, state: dict[str, list[float]]) -> None:
        self.samples = {
            op: array("d", state.get(op.value, ())) for op in self.samples
        }


class FixedBucketHistogram:
    """Streaming histogram over fixed bucket upper bounds.

    ``observe`` is O(log buckets); memory is O(buckets) forever.  A
    percentile query answers with the upper bound of the bucket holding
    the nearest-rank sample (the overflow bucket answers with the exact
    observed maximum, so tails are never silently truncated).
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS_US) -> None:
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        #: one count per bound plus the overflow bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        if value < 0.0:
            raise ValueError("histogram samples must be non-negative")
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.total += value
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank estimate: the matched bucket's upper bound.

        The estimate is clamped to the exact observed maximum, so it can
        never exceed ``max`` (a lone 5.0 us sample answers 5.0, not its
        bucket's 10.0 bound); the overflow bucket answers the exact
        maximum directly.  Tails are therefore never over- *or*
        under-reported past the true extremes.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(0, min(self.count - 1, ceil(q / 100.0 * self.count) - 1))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if rank < seen:
                if i >= len(self.bounds):
                    return self.max
                return min(self.bounds[i], self.max)
        raise AssertionError("unreachable")  # pragma: no cover

    def snapshot(self) -> dict[str, float]:
        """JSON-ready summary (exact count/mean/min/max, bucketed tails).

        Same key set and empty-input semantics as :func:`summarize`:
        ``count`` is always present, and when it is 0 every other field
        reads 0.0 and is meaningless -- gate on ``count``.
        """
        out: dict[str, float] = {
            "count": float(self.count),
            "mean_us": self.mean,
            "min_us": self.min,
        }
        for label, q in PERCENTILES:
            out[label] = self.percentile(q)
        out["max_us"] = self.max
        return out
