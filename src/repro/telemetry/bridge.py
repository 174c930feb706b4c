"""Observer bridge: FTL callbacks -> trace events.

The FTLs already publish every page-level transition through the
:class:`~repro.ftl.observer.FtlObserver` protocol; telemetry taps that
existing seam instead of sprinkling emit calls through FTL internals.
When a run is traced, :class:`repro.ssd.device.SSD` chains one
:class:`TelemetryObserver` in front of the caller's observer (and the
runtime sanitizer, when attached, chains in front of both), so the
bridge sees the same event stream every auditor sees.

The bridge only publishes: the counts of the same transitions have one
owner each, ``DeviceStats`` for programs, erases and locks and the
engine's report for lock drains.

When telemetry is disabled the bridge is simply never constructed --
the FTL keeps its original observer and the hot path pays nothing.

``telemetry`` is the lowest layer of the SIM14 stack, so the bridge
knows the observer protocol only as a type: the device hands it the
``inner`` observer to forward to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.ftl.observer import FtlObserver


class TelemetryObserver:
    """Publishes FTL observer events onto a telemetry session's bus."""

    def __init__(self, telemetry: Telemetry, inner: FtlObserver) -> None:
        self.inner = inner
        self._bus = telemetry.bus

    # ------------------------------------------------------------------
    def on_program(self, gppa: int, lpa: int, tag: object, secure: bool) -> None:
        self.inner.on_program(gppa, lpa, tag, secure)
        self._bus.instant(
            "ftl.page",
            "program",
            args={"gppa": gppa, "lpa": lpa, "secure": secure},
        )

    def on_invalidate(self, gppa: int, lpa: int, reason: str) -> None:
        self.inner.on_invalidate(gppa, lpa, reason)
        self._bus.instant(
            "ftl.page",
            "invalidate",
            args={"gppa": gppa, "lpa": lpa, "reason": reason},
        )

    def on_sanitize(self, gppa: int, method: str) -> None:
        self.inner.on_sanitize(gppa, method)
        self._bus.instant(
            "ftl.sanitize", "sanitize", args={"gppa": gppa, "method": method}
        )

    def on_erase(self, global_block: int) -> None:
        self.inner.on_erase(global_block)
        self._bus.instant("ftl.flash", "erase", args={"block": global_block})

    def on_logical_tick(self, ticks: int) -> None:
        self.inner.on_logical_tick(ticks)

    def on_lock_deferred(self, chip_id: int, n_locks: int, deferred_us: float) -> None:
        # the engine emits the drain *span*; the bridge only forwards.
        self.inner.on_lock_deferred(chip_id, n_locks, deferred_us)
