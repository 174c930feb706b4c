"""Snapshot/restore of one device (+ engine), with a restore-time audit.

A *snapshot* is a flat ``{section name: state_dict}`` mapping -- one
section per subsystem -- taken at a quiescent engine boundary (no event
in the heap, no request in flight, no deferred lock pulse pending).
Sections deliberately mirror the architecture so a corruption report
names the subsystem, not a byte offset:

=============  =====================================================
``ftl``        mapping/status/allocator/GC/bad-block state + stats
``chips``      per-chip flash arrays, pAP/bAP flags, erase counters
``faults``     fault-plan cursor, RNG stream, injected-fault log
``timing``     busy clocks and work accumulators (t_* validated)
``checker``    the runtime sanitizer's shadow state (checked runs)
``telemetry``  trace-bus retention accounting (traced runs)
``events``     the trace events appended since the last generation
               (a :class:`~repro.checkpoint.store.Segment`)
``engine``     sim clock, arrival cursor, latency/depth recorders
=============  =====================================================

Restore rebuilds the device *constructively* -- the caller constructs a
fresh ``SSD``/engine from the campaign parameters, then
:func:`restore_device` loads every section in place -- so objects keep
their wiring (observers, fault hooks, telemetry taps) and only *state*
travels through the checkpoint.

Before a restored device executes a single operation,
:func:`restore_audit` replays the runtime sanitizer's full invariant
pass (L2P/P2S bijection, block counters, shadow divergence,
unreadability probes on sanitized stale copies) and additionally probes
every pLocked page and bLocked block on every Evanesco chip, asserting
the chip still suppresses the read.  Audit failures raise
:class:`CheckpointAuditError` -- a structured verdict the campaign layer
turns into quarantine + fallback, never a traceback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.checkers.residue import lock_violation
from repro.checkers.sanitizer import FtlSanitizer, InvariantViolation
from repro.checkpoint.store import Segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import QueueingEngine
    from repro.ssd.device import SSD

__all__ = [
    "EVENTS",
    "CheckpointAuditError",
    "restore_audit",
    "restore_device",
    "snapshot_device",
]


#: section holding the telemetry trace's segment chain.
EVENTS = "events"


class CheckpointAuditError(Exception):
    """A restored device failed the pre-execution invariant audit.

    Attributes
    ----------
    invariant:
        Which check failed (the sanitizer's invariant names, or
        ``"locked-page-probe"`` / ``"locked-block-probe"`` for the
        Evanesco lock re-verification).
    detail:
        Human-readable description with the offending addresses.
    """

    def __init__(self, invariant: str, detail: str) -> None:
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"[{invariant}] {detail}")


def snapshot_device(
    ssd: SSD, engine: QueueingEngine | None = None, since: int = 0
) -> dict[str, Any]:
    """Collect one full device snapshot as ``{section: state}``.

    The :data:`EVENTS` section holds only the retained trace events
    pushed at or after push index ``since``: the previous generation's
    :meth:`~repro.checkpoint.store.CheckpointStore.cursor`.
    """
    ftl = ssd.ftl
    telemetry = ssd.telemetry
    sections: dict[str, Any] = {
        "ftl": ftl.state_dict(),
        "chips": [chip.state_dict() for chip in ftl.chips],
        "faults": (
            None
            if ftl.fault_injector is None
            else ftl.fault_injector.state_dict()
        ),
        "timing": ftl.timing.state_dict(),
        "checker": None if ftl.checker is None else ftl.checker.state_dict(),
        "telemetry": (
            None if telemetry is None else {"bus": telemetry.bus.state_dict()}
        ),
    }
    if telemetry is not None:
        bus = telemetry.bus
        payload = bus.segment(since)
        sections[EVENTS] = Segment(
            first=payload["first"],
            count=len(payload["kind"]),
            live_from=bus.dropped,
            payload=payload,
        )
    if engine is not None:
        sections["engine"] = engine.state_dict()
    return sections


def restore_device(
    ssd: SSD,
    engine: QueueingEngine | None,
    sections: dict[str, Any],
    audit: bool = True,
) -> None:
    """Load a snapshot into a freshly constructed device (+ engine).

    The target must have been built from the *same campaign parameters*
    (config, variant, seed, fault plan, checked mode) as the snapshotted
    one; the per-section loaders validate the cheap structural half of
    that contract (topology sizes, timing constants, fault plans) and
    raise ``ValueError`` on mismatch.  With ``audit=True`` (the
    default), the restored state must then pass :func:`restore_audit`
    before this function returns.
    """
    ftl = ssd.ftl
    # chips first: the FTL's tables describe what the arrays must hold.
    for chip, payload in zip(ftl.chips, sections["chips"]):
        chip.load_state_dict(payload)
    ftl.load_state_dict(sections["ftl"])
    faults = sections.get("faults")
    if (faults is None) != (ftl.fault_injector is None):
        raise ValueError(
            "checkpoint fault section does not match the configured device "
            f"(snapshot {'has' if faults is not None else 'lacks'} faults)"
        )
    if faults is not None:
        ftl.fault_injector.load_state_dict(faults)
    ftl.timing.load_state_dict(sections["timing"])
    checker = sections.get("checker")
    if checker is not None and ftl.checker is None:
        raise ValueError(
            "checkpoint was taken from a checked run but the restored "
            "device has no sanitizer attached"
        )
    if ftl.checker is not None:
        if checker is None:
            raise ValueError(
                "checkpoint was taken from an unchecked run but the "
                "restored device is checked"
            )
        ftl.checker.load_state_dict(checker)
    telemetry = sections.get("telemetry")
    if telemetry is not None and ssd.telemetry is not None:
        # a store load yields the chain's payloads, an in-memory
        # snapshot its one Segment
        events = sections.get(EVENTS, [])
        if isinstance(events, Segment):
            events = [events.payload]
        ssd.telemetry.bus.load_state_dict(telemetry["bus"], events)
    if engine is not None:
        engine.load_state_dict(sections["engine"])
    if audit:
        restore_audit(ssd)


def restore_audit(ssd: SSD) -> None:
    """Replay the sanitizer's invariants against just-restored state.

    Checked devices re-run their (restored) sanitizer's
    ``full_check`` -- shadow divergence included, so a bit-flip that
    survived the checksums but skewed the status table is still caught.
    Unchecked devices get a temporary sanitizer resynced from the
    restored tables, which verifies the structural invariants (bijection,
    counters) and is detached afterwards.

    On Evanesco chips the audit then re-verifies enforcement physically
    (:func:`repro.checkers.residue.lock_violation`): every pLocked page
    and every bLocked block must still read back ``locked`` -- erased
    cells do not count.  Probe reads restore the chip counters and run
    with fault injection suspended, so an audited restore reports
    statistics identical to an unaudited one.
    """
    ftl = ssd.ftl
    checker = ftl.checker
    if checker is not None:
        saved = (checker.full_checks, checker.probes)
        try:
            checker.full_check()
        except InvariantViolation as exc:
            raise CheckpointAuditError(exc.invariant, exc.detail) from exc
        finally:
            checker.full_checks, checker.probes = saved
    else:
        temp = FtlSanitizer(ftl)
        try:
            temp.resync()
            temp.full_check()
        except InvariantViolation as exc:
            raise CheckpointAuditError(exc.invariant, exc.detail) from exc
        finally:
            # detach: the recording observer was chained in front of the
            # FTL's observer by the sanitizer's constructor.
            ftl.observer = ftl.observer._inner
    failure = lock_violation(ftl)
    if failure is not None:
        raise CheckpointAuditError(*failure)
