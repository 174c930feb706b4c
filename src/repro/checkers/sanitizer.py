"""Runtime sanitization-invariant checker ("TSan for the FTL").

An opt-in shadow checker that attaches to any
:class:`~repro.ftl.base.PageMappedFtl` subclass and re-verifies, after
every host/GC batch, the invariants the whole reproduction stands on:

1. **Page-status state machine** -- every physical page only moves
   FREE -> VALID/SECURED -> INVALID -> FREE.  The checker replays the
   FTL's observer event stream into a shadow status table and flags any
   illegal transition the instant it happens, plus any divergence
   between shadow and the FTL's real :class:`StatusTable`.
2. **L2P/P2S bijection** -- the mapping tables stay mutually inverse,
   and a page is VALID/SECURED if and only if it is mapped.
3. **Per-block counters** -- ``live``/``secured``/``invalid`` counts
   match a from-scratch recount of the status array.
4. **The security invariant** (the paper's C1/C2 core): once a secured
   page is invalidated, it must be sanitized before the request
   completes -- and the sanitized copy must *actually* be unreadable.
   The checker issues real reads against stale secured copies and
   holds each readback to the sanitize method's residue rule
   (:mod:`repro.checkers.residue`).

Violations raise :class:`InvariantViolation` carrying the recent event
trail so the failing FTL path can be reconstructed.

Cost: the per-event shadow replay and end-of-batch security check are
O(batch); the full recount/bijection/probe pass is O(device) and runs
every ``interval`` batches (``interval=1`` checks after every request).
Enable per device with ``SSD(..., checked=True)``, globally with
:func:`set_default_checked` or ``REPRO_CHECKED=1``.
"""

from __future__ import annotations

import os
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.checkers.residue import sanitize_violation, stale_secured_leaks
from repro.ftl.observer import notify_optional
from repro.ftl.page_status import PageStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.ftl.base import PageMappedFtl

#: invalidation reasons that kill a data *version* (vs. relocating a
#: still-live version's old copy).
VERSION_DEATH_REASONS = frozenset({"host-update", "host-trim"})

#: sanitize scopes an FTL class may declare (``sanitize_scope`` attr):
#: - "none": no sanitization guarantee (baseline);
#: - "all": every secured stale copy is sanitized in-batch (secSSD,
#:   erSSD, scrSSD);
#: - "version-death": only host updates/trims sanitize (cryptSSD: GC
#:   copies of a live version legitimately keep their key).
SANITIZE_SCOPES = ("none", "all", "version-death")


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


_default_checked: bool = _env_flag("REPRO_CHECKED")
_default_interval: int = int(os.environ.get("REPRO_CHECK_INTERVAL", "1") or 1)


def set_default_checked(enabled: bool = True, interval: int | None = None) -> None:
    """Set the process-wide default for newly constructed FTLs/SSDs.

    Test suites call this once (e.g. from ``conftest.py``) to run every
    device under the sanitizer without touching call sites.
    """
    global _default_checked, _default_interval
    _default_checked = enabled
    if interval is not None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        _default_interval = interval


def default_checked() -> bool:
    return _default_checked


def default_interval() -> int:
    return _default_interval


class InvariantViolation(Exception):
    """A checked FTL broke one of the sanitization invariants.

    Attributes
    ----------
    invariant:
        Which invariant failed: ``"status-transition"``,
        ``"status-divergence"``, ``"mapping-bijection"``,
        ``"block-counters"``, ``"security"``, or ``"unreadable-probe"``.
    detail:
        Human-readable description with the offending addresses.
    trail:
        The most recent observer events, oldest first.
    batch:
        Index of the host batch during which the violation surfaced.
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        trail: list[str] | None = None,
        batch: int = 0,
    ) -> None:
        self.invariant = invariant
        self.detail = detail
        self.trail = list(trail or [])
        self.batch = batch
        super().__init__(self._render())

    def _render(self) -> str:
        lines = [f"[{self.invariant}] {self.detail} (batch {self.batch})"]
        if self.trail:
            lines.append("event trail (oldest first):")
            lines.extend(f"  {event}" for event in self.trail)
        return "\n".join(lines)


class _RecordingObserver:
    """Forwards FTL events to the inner observer and the sanitizer."""

    def __init__(self, sanitizer: FtlSanitizer, inner: Any) -> None:
        self._sanitizer = sanitizer
        self._inner = inner

    def on_program(self, gppa: int, lpa: int, tag: object, secure: bool) -> None:
        self._inner.on_program(gppa, lpa, tag, secure)
        self._sanitizer._on_program(gppa, lpa, secure)

    def on_invalidate(self, gppa: int, lpa: int, reason: str) -> None:
        self._inner.on_invalidate(gppa, lpa, reason)
        self._sanitizer._on_invalidate(gppa, lpa, reason)

    def on_sanitize(self, gppa: int, method: str) -> None:
        self._inner.on_sanitize(gppa, method)
        self._sanitizer._on_sanitize(gppa, method)

    def on_erase(self, global_block: int) -> None:
        self._inner.on_erase(global_block)
        self._sanitizer._on_erase(global_block)

    def on_logical_tick(self, ticks: int) -> None:
        self._inner.on_logical_tick(ticks)

    def on_lock_deferred(self, chip_id: int, n_locks: int, deferred_us: float) -> None:
        # timing-only event (repro.sim deferral policy): record it in the
        # trail so violation reports show deferral activity, and forward
        # if the inner observer cares; it never changes page status.
        notify_optional(
            self._inner, "on_lock_deferred", chip_id, n_locks, deferred_us
        )
        self._sanitizer._record(
            f"lock-drain chip={chip_id} n={n_locks} waited={deferred_us:.1f}us"
        )


class FtlSanitizer:
    """Shadow checker attached to one FTL instance.

    Construction chains a recording observer in front of the FTL's
    observer; :meth:`check_batch` is invoked by the FTL at the end of
    every ``submit``.
    """

    def __init__(
        self,
        ftl: PageMappedFtl,
        interval: int | None = None,
        trail_length: int = 64,
    ) -> None:
        self.ftl = ftl
        self.interval = max(1, interval if interval is not None else default_interval())
        scope = getattr(ftl, "sanitize_scope", "none")
        if scope not in SANITIZE_SCOPES:
            raise ValueError(
                f"{type(ftl).__name__}.sanitize_scope must be one of "
                f"{SANITIZE_SCOPES}, got {scope!r}"
            )
        self.scope = scope
        self.batch = 0
        self.full_checks = 0
        self.probes = 0
        self._trail: deque[str] = deque(maxlen=trail_length)
        #: shadow copy of the per-page status, driven purely by events.
        self._shadow: list[PageStatus] = [PageStatus.FREE] * ftl.config.physical_pages
        #: secured stale copies awaiting sanitization (must drain by
        #: the end of every batch).
        self._pending: set[int] = set()
        #: sanitized-but-not-yet-erased pages: gppa -> sanitize method.
        self._sanitized: dict[int, str] = {}
        #: pages sanitized during the current batch (probed eagerly).
        self._fresh: set[int] = set()
        ftl.observer = _RecordingObserver(self, ftl.observer)

    # ------------------------------------------------------------------
    # event stream (called by the recording observer)
    # ------------------------------------------------------------------
    def _record(self, event: str) -> None:
        self._trail.append(f"#{self.batch} {event}")

    def _fail(self, invariant: str, detail: str) -> None:
        raise InvariantViolation(
            invariant, detail, trail=list(self._trail), batch=self.batch
        )

    def _on_program(self, gppa: int, lpa: int, secure: bool) -> None:
        self._record(f"program gppa={gppa} lpa={lpa} secure={secure}")
        prev = self._shadow[gppa]
        if prev is not PageStatus.FREE:
            self._fail(
                "status-transition",
                f"program of gppa {gppa} while {prev.name} (must be FREE)",
            )
        self._shadow[gppa] = PageStatus.SECURED if secure else PageStatus.VALID

    def _on_invalidate(self, gppa: int, lpa: int, reason: str) -> None:
        self._record(f"invalidate gppa={gppa} lpa={lpa} reason={reason}")
        prev = self._shadow[gppa]
        if prev not in (PageStatus.VALID, PageStatus.SECURED):
            self._fail(
                "status-transition",
                f"invalidate of gppa {gppa} while {prev.name} "
                "(must be VALID or SECURED)",
            )
        self._shadow[gppa] = PageStatus.INVALID
        if prev is PageStatus.SECURED and self._requires_sanitize(reason):
            self._pending.add(gppa)

    def _on_sanitize(self, gppa: int, method: str) -> None:
        self._record(f"sanitize gppa={gppa} method={method}")
        self._pending.discard(gppa)
        self._sanitized[gppa] = method
        self._fresh.add(gppa)

    def _on_erase(self, global_block: int) -> None:
        self._record(f"erase block={global_block}")
        ppb = self.ftl.geometry.pages_per_block
        base = global_block * ppb
        for gppa in range(base, base + ppb):
            self._shadow[gppa] = PageStatus.FREE
            self._pending.discard(gppa)
            self._sanitized.pop(gppa, None)
            self._fresh.discard(gppa)

    def _requires_sanitize(self, reason: str) -> bool:
        if self.scope == "none":
            return False
        if self.scope == "all":
            return True
        return reason in VERSION_DEATH_REASONS

    # ------------------------------------------------------------------
    # batch boundary
    # ------------------------------------------------------------------
    def check_batch(self) -> None:
        """Verify invariants at the end of one host request batch."""
        self.batch += 1
        if self._pending:
            sample = sorted(self._pending)[:8]
            self._fail(
                "security",
                f"{len(self._pending)} secured stale page(s) left "
                f"unsanitized at batch end (e.g. gppa {sample}); scope="
                f"{self.scope!r}",
            )
        self._check_unreadable(sorted(self._fresh))
        self._fresh.clear()
        if self.batch % self.interval == 0:
            self.full_check()

    def full_check(self) -> None:
        """O(device) pass: shadow divergence, counters, bijection, probes."""
        self.full_checks += 1
        self._check_shadow_divergence()
        self._check_block_counters()
        self._check_mapping_bijection()
        self._check_unreadable(sorted(self._sanitized))

    def resync(self) -> None:
        """Re-adopt the FTL's tables as ground truth.

        Used after legitimate wholesale state rebuilds (power-loss
        recovery): the observer stream does not describe those, so the
        shadow is re-seeded from the real tables and the sanitize
        tracking is dropped (locked pages re-enter as plain INVALID,
        exactly how the recovery scan classifies them).

        Dropping the tracking hides any sanitize the rebuild still owes:
        the rebuilder checks those with :meth:`check_rebuild_leaks`.
        """
        status = self.ftl.status
        self._shadow = [status.get(g) for g in range(status.physical_pages)]
        self._pending.clear()
        self._sanitized.clear()
        self._fresh.clear()
        self._record("resync (state rebuild adopted)")

    def check_rebuild_leaks(self) -> None:
        """Fail if a dead secured page is still readable after a rebuild.

        Power-loss recovery calls this once it has sanitized its secured
        losers; a loser it skipped is a readable dead secured page
        (:func:`~repro.checkers.residue.stale_secured_leaks`).
        """
        leaks = stale_secured_leaks(self.ftl)
        if leaks:
            self._fail(
                "security",
                f"{len(leaks)} dead secured page(s) still readable after "
                f"a state rebuild (e.g. gppa {leaks[:8]}): a sanitize the "
                "rebuild owed never ran",
            )

    # ------------------------------------------------------------------
    # structural checks
    # ------------------------------------------------------------------
    def _check_shadow_divergence(self) -> None:
        status = self.ftl.status
        for gppa in range(status.physical_pages):
            real = status.get(gppa)
            shadow = self._shadow[gppa]
            if real is not shadow:
                self._fail(
                    "status-divergence",
                    f"gppa {gppa}: StatusTable says {real.name} but the "
                    f"observer event stream implies {shadow.name} (a "
                    "status mutation bypassed the observer hooks)",
                )

    def _check_block_counters(self) -> None:
        status = self.ftl.status
        ppb = self.ftl.geometry.pages_per_block
        for block_id in range(status.n_blocks):
            base = block_id * ppb
            live = secured = invalid = 0
            for gppa in range(base, base + ppb):
                st = status.get(gppa)
                if st in (PageStatus.VALID, PageStatus.SECURED):
                    live += 1
                    if st is PageStatus.SECURED:
                        secured += 1
                elif st is PageStatus.INVALID:
                    invalid += 1
            recounted = (live, secured, invalid)
            cached = (
                status.live_count(block_id),
                status.secured_count(block_id),
                status.invalid_count(block_id),
            )
            if recounted != cached:
                self._fail(
                    "block-counters",
                    f"block {block_id}: cached (live, secured, invalid)="
                    f"{cached} but recount gives {recounted}",
                )

    def _check_mapping_bijection(self) -> None:
        ftl = self.ftl
        l2p = ftl.l2p
        status = ftl.status
        from repro.ftl.mapping import UNMAPPED

        for lpa in range(l2p.logical_pages):
            gppa = l2p.lookup(lpa)
            if gppa == UNMAPPED:
                continue
            back = l2p.reverse(gppa)
            if back != lpa:
                self._fail(
                    "mapping-bijection",
                    f"l2p[{lpa}] = {gppa} but p2l[{gppa}] = {back}",
                )
        for gppa in range(l2p.physical_pages):
            lpa = l2p.reverse(gppa)
            mapped = lpa != UNMAPPED
            if mapped and l2p.lookup(lpa) != gppa:
                self._fail(
                    "mapping-bijection",
                    f"p2l[{gppa}] = {lpa} but l2p[{lpa}] = {l2p.lookup(lpa)}",
                )
            live = status.get(gppa) in (PageStatus.VALID, PageStatus.SECURED)
            if live and not mapped:
                self._fail(
                    "mapping-bijection",
                    f"gppa {gppa} is {status.get(gppa).name} but unmapped "
                    "(leaked live page)",
                )
            if mapped and not live:
                self._fail(
                    "mapping-bijection",
                    f"gppa {gppa} is mapped to lpa {lpa} but its status is "
                    f"{status.get(gppa).name}",
                )

    # ------------------------------------------------------------------
    # security probes: actually read the stale copy
    # ------------------------------------------------------------------
    def _check_unreadable(self, gppas: list[int]) -> None:
        """Read each sanitized stale copy and apply the residue rule."""
        for gppa in gppas:
            self.probes += 1
            detail = sanitize_violation(self.ftl, gppa, self._sanitized[gppa])
            if detail is not None:
                self._fail("unreadable-probe", detail)

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        """Counters for reporting (``repro check``)."""
        return {
            "batches": self.batch,
            "full_checks": self.full_checks,
            "probes": self.probes,
            "tracked_sanitized": len(self._sanitized),
        }

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """Checkpoint payload (see :mod:`repro.checkpoint`).

        The shadow table and sanitize tracking must round-trip exactly:
        a restored checked run has to keep enforcing from the same
        vantage point -- and report the same counters -- as one that was
        never interrupted.
        """
        return {
            "batch": self.batch,
            "full_checks": self.full_checks,
            "probes": self.probes,
            "shadow": [int(s) for s in self._shadow],
            "pending": set(self._pending),
            "sanitized": dict(self._sanitized),
            "fresh": set(self._fresh),
            "trail": list(self._trail),
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.batch = state["batch"]
        self.full_checks = state["full_checks"]
        self.probes = state["probes"]
        self._shadow = [PageStatus(v) for v in state["shadow"]]
        self._pending = set(state["pending"])
        self._sanitized = dict(state["sanitized"])
        self._fresh = set(state["fresh"])
        self._trail = deque(state["trail"], maxlen=self._trail.maxlen)
