"""Unified telemetry: event bus, spans, metrics registry, exporters.

One :class:`Telemetry` session rides along with one SSD run and bundles
the two instruments every layer publishes into:

* :attr:`Telemetry.bus` -- the structured :class:`~repro.telemetry.
  events.TraceBus` (ring-buffered, category-sampled trace events on the
  simulated clock, stored as columns; ``bus.events`` builds
  :class:`~repro.telemetry.events.TraceEvent` objects on demand);
* :attr:`Telemetry.tracer` -- the :class:`~repro.telemetry.spans.
  Tracer` for nested macro-phase spans (GC, lock batches, relocation
  storms, recovery scans).

A session counts nothing: every count of a run has one owner,
``DeviceStats`` for the device and ``EngineReport`` for the engine.
The :class:`~repro.telemetry.metrics.MetricsRegistry` is a standalone
report builder (fleet metrics, aging gauges), not part of a session.

**Zero cost when disabled** is the design contract: the module-level
:data:`DISABLED` singleton reports ``enabled=False``, carries no bus,
and hands out one shared no-op span.  Emitters either hold a
reference to :data:`DISABLED` (FTL spans -- a handful per GC round) or
are simply not installed at all (the observer bridge, the engine's
per-segment hooks), so the per-operation hot path of an untraced run
is byte-for-byte the code that ran before telemetry existed.

Wiring: pass ``Telemetry()`` as the ``telemetry=`` argument of
:class:`repro.ssd.device.SSD` / :func:`repro.sim.runner.
simulate_workload`, then export ``tel.bus.events`` via
:mod:`repro.telemetry.export`; the audit layer reads
``tel.bus.columns()`` instead; a checkpoint carries ``tel.bus``'s
state.  The ``repro trace`` subcommand and the
``--trace-out`` flags of ``repro simulate`` / ``repro torture`` do all
of that in one step.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.telemetry.events import TraceBus, TraceEvent
from repro.telemetry.histogram import (
    DEFAULT_BOUNDS_US,
    PERCENTILES,
    FixedBucketHistogram,
    percentile,
    summarize,
)
from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry
from repro.telemetry.spans import NULL_SPAN, NullTracer, Tracer


class Telemetry:
    """One run's telemetry session (enabled unless told otherwise)."""

    enabled = True

    def __init__(
        self,
        capacity: int = 65536,
        sample: Mapping[str, int] | None = None,
    ) -> None:
        self.bus = TraceBus(capacity=capacity, sample=sample)
        self.tracer = Tracer(self.bus)


class _DisabledTelemetry:
    """The no-op singleton; every untraced run shares this instance."""

    enabled = False
    bus = None

    def __init__(self) -> None:
        self.tracer = NullTracer()


#: process-wide disabled session: referenced, never mutated.
DISABLED = _DisabledTelemetry()

#: what emitters hold: a real session or the disabled singleton.
AnyTelemetry = Telemetry | _DisabledTelemetry

__all__ = [
    "AnyTelemetry",
    "Counter",
    "DEFAULT_BOUNDS_US",
    "DISABLED",
    "FixedBucketHistogram",
    "Gauge",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullTracer",
    "PERCENTILES",
    "Telemetry",
    "TraceBus",
    "TraceEvent",
    "Tracer",
    "percentile",
    "summarize",
]
