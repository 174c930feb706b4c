"""Observer bridge: FTL callbacks -> trace events + metrics.

The FTLs already publish every page-level transition through the
:class:`~repro.ftl.observer.FtlObserver` protocol; telemetry taps that
existing seam instead of sprinkling emit calls through FTL internals.
When a run is traced, :class:`repro.ssd.device.SSD` chains one
:class:`TelemetryObserver` in front of the caller's observer (and the
runtime sanitizer, when attached, chains in front of both), so the
bridge sees the same event stream every auditor sees.

When telemetry is disabled the bridge is simply never constructed --
the FTL keeps its original observer and the hot path pays nothing.
"""

from __future__ import annotations

from repro.ftl.observer import FtlObserver, NullObserver, notify_optional
from repro.telemetry import Counter, Telemetry


class TelemetryObserver:
    """Publishes FTL observer events onto a telemetry session."""

    def __init__(
        self, telemetry: Telemetry, inner: FtlObserver | None = None
    ) -> None:
        self.telemetry = telemetry
        self.inner: FtlObserver = inner or NullObserver()
        self._bus = telemetry.bus
        self._metrics = metrics = telemetry.metrics
        self._programs = metrics.bind("ftl.programs")
        self._invalidations = metrics.bind("ftl.invalidations")
        self._erases = metrics.bind("ftl.erases")
        self._logical_ticks = metrics.bind("ftl.logical_ticks")
        self._lock_drains = metrics.bind("sim.lock_drains")
        self._deferred_pulses = metrics.bind("sim.deferred_lock_pulses")
        #: ``ftl.sanitized.<method>`` counters, bound on first use.
        self._sanitized: dict[str, Counter] = {}

    # ------------------------------------------------------------------
    def on_program(self, gppa: int, lpa: int, tag: object, secure: bool) -> None:
        self.inner.on_program(gppa, lpa, tag, secure)
        self._programs.inc()
        self._bus.instant(
            "ftl.page",
            "program",
            args={"gppa": gppa, "lpa": lpa, "secure": secure},
        )

    def on_invalidate(self, gppa: int, lpa: int, reason: str) -> None:
        self.inner.on_invalidate(gppa, lpa, reason)
        self._invalidations.inc()
        self._bus.instant(
            "ftl.page",
            "invalidate",
            args={"gppa": gppa, "lpa": lpa, "reason": reason},
        )

    def on_sanitize(self, gppa: int, method: str) -> None:
        self.inner.on_sanitize(gppa, method)
        counter = self._sanitized.get(method)
        if counter is None:
            counter = self._sanitized[method] = self._metrics.bind(
                f"ftl.sanitized.{method}"
            )
        counter.inc()
        self._bus.instant(
            "ftl.sanitize", "sanitize", args={"gppa": gppa, "method": method}
        )

    def on_erase(self, global_block: int) -> None:
        self.inner.on_erase(global_block)
        self._erases.inc()
        self._bus.instant("ftl.flash", "erase", args={"block": global_block})

    def on_logical_tick(self, ticks: int) -> None:
        self.inner.on_logical_tick(ticks)
        self._logical_ticks.inc(ticks)

    def on_lock_deferred(self, chip_id: int, n_locks: int, deferred_us: float) -> None:
        # the engine emits the drain *span*; the bridge only aggregates
        # and forwards (the inner observer may predate this callback).
        notify_optional(self.inner, "on_lock_deferred", chip_id, n_locks, deferred_us)
        self._lock_drains.inc()
        self._deferred_pulses.inc(n_locks)
