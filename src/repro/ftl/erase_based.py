"""erSSD: erase-based immediate sanitization -- Sections 4 and 7.

When a secured page is invalidated, erSSD sanitizes it the only way a
standard flash chip can: it relocates every live page out of the block
containing the stale copy and erases the whole block immediately.  Per
the paper's footnote 15, erSSD is assumed free of the open-interval
reliability problem (it exists to quantify the *performance* cost of
erase-based sanitization), so its GC also erases victims eagerly.

The relocation storms dominate everything: the paper measures WAF up to
320x and IOPS below 4 % of the baseline.
"""

from __future__ import annotations

from repro.ftl.base import InvalidationEvent, PageMappedFtl
from repro.ftl.page_status import PageStatus


class EraseBasedFtl(PageMappedFtl):
    """erSSD: relocate-and-erase on every secured invalidation."""

    name = "erSSD"
    tracks_secure = True
    #: every secured stale copy is erased away within the batch.
    sanitize_scope = "all"

    # ------------------------------------------------------------------
    def _sanitize_host_batch(self, events: list[InvalidationEvent]) -> None:
        # a GC victim erased earlier in this request already took its
        # stale copies with it; erasing it again would free it twice.
        status = self.status
        blocks = {
            self.block_of_gppa(event.gppa)
            for event in events
            if event.was_secured and status.get(event.gppa) is PageStatus.INVALID
        }
        for gb in sorted(blocks):
            self._erase_block_for_sanitize(gb)

    def _finish_victim(
        self,
        chip_id: int,
        local_block: int,
        events: list[InvalidationEvent],
    ) -> None:
        # eager erase: the victim may hold secured stale copies, and
        # erSSD has no way to sanitize them short of erasing (fn. 15).
        gb = self.global_block(chip_id, local_block)
        self._note_secured_invalid_sanitized(gb)
        with self.timing.sanitize_region():
            if self._erase_block_now(chip_id, local_block):
                self.stats.sanitize_erases += 1
                self.alloc.add_erased(chip_id, local_block)
        # a status-failed erase scrubbed + retired the block instead;
        # the scrub sanitize notes supersede the eager erase notes

    # ------------------------------------------------------------------
    def _erase_block_for_sanitize(self, gb: int) -> None:
        """Relocate the block's live pages, then erase it right away."""
        chip_id, local_block = self.split_global_block(gb)
        with self.tel.tracer.span(
            "relocation_storm", cat="ftl.sanitize", chip=chip_id, block=gb
        ), self.timing.sanitize_region():
            if self.alloc.active_block(chip_id) == local_block:
                # the stale copy sits in the open block: close it so the
                # relocations (and future writes) land elsewhere.
                self.alloc.close_active(chip_id)
            moved = self._move_pages(
                self.status.live_pages(gb), "sanitize-relocate"
            )
            self.stats.relocation_copies += len(moved)
            self._note_secured_invalid_sanitized(gb)
            if self._erase_block_now(chip_id, local_block):
                self.stats.sanitize_erases += 1
                self.alloc.add_erased(chip_id, local_block)

    def _note_secured_invalid_sanitized(self, gb: int) -> None:
        """Report every stale page of the block as sanitized-by-erase."""
        for gppa in self.status.invalid_pages(gb):
            self.observer.on_sanitize(gppa, "erase")
