"""Observer hooks into FTL-internal events.

The VerTrace profiler (Section 3) and the sanitization auditor need to
see what the FTL does to physical pages: programs, invalidations,
sanitizations (lock/scrub/erase), and block erases.  The FTL publishes
those through this minimal observer protocol so the measurement tools
stay decoupled from FTL internals -- mirroring how the paper bolts its
logger module onto FlashBench's emulated storage model.
"""

from __future__ import annotations

from typing import Protocol


class FtlObserver(Protocol):
    """Callbacks invoked synchronously by the FTL."""

    def on_program(self, gppa: int, lpa: int, tag: object, secure: bool) -> None:
        """A physical page was programmed with host (or GC-moved) data."""

    def on_invalidate(self, gppa: int, lpa: int, reason: str) -> None:
        """A physical page's data became stale (host update/trim or GC move)."""

    def on_sanitize(self, gppa: int, method: str) -> None:
        """A physical page's data became irrecoverable before erase
        (method: "plock" | "block_lock" | "scrub" | "erase" |
        "key_delete")."""

    def on_erase(self, global_block: int) -> None:
        """A block was physically erased (all its pages destroyed)."""

    def on_logical_tick(self, ticks: int) -> None:
        """Logical time advanced (one tick per 4-KiB host write, Sec. 3)."""

    def on_lock_deferred(self, chip_id: int, n_locks: int, deferred_us: float) -> None:
        """A batch of deferred lock pulses drained on a chip.

        Emitted by the :mod:`repro.sim` sanitization-deferral scheduling
        policy when it flushes pending pLock/bLock *pulses* into an idle
        window (or ahead of a read barrier).  ``deferred_us`` is how long
        the oldest pulse of the batch waited.  Deferral is a *timing*
        policy only -- the FTL's functional lock state was already
        applied at invalidation time -- so observers use this to audit
        the deferral window, not to track sanitization coverage.
        """


class NullObserver:
    """Default observer: ignores everything."""

    def on_program(self, gppa: int, lpa: int, tag: object, secure: bool) -> None:
        pass

    def on_invalidate(self, gppa: int, lpa: int, reason: str) -> None:
        pass

    def on_sanitize(self, gppa: int, method: str) -> None:
        pass

    def on_erase(self, global_block: int) -> None:
        pass

    def on_logical_tick(self, ticks: int) -> None:
        pass

    def on_lock_deferred(self, chip_id: int, n_locks: int, deferred_us: float) -> None:
        pass
