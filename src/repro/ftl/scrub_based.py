"""scrSSD: scrubbing-based immediate sanitization -- Sections 4 and 7.

When a secured page is invalidated, scrSSD destroys it with a one-shot
scrub pulse on its wordline.  In TLC flash a wordline holds three pages,
so any live sibling pages must first be relocated -- the copy overhead
the paper quantifies (WAF up to 4.41x, IOPS ~34 % of baseline).  The
scrub pulse itself is modelled at 100 us, matching Section 7 ("we set
the scrubbing latency to 100 us assuming that the one-shot programming
scheme is used").

Two bookkeeping subtleties the real design would face are modelled
explicitly:

* a stale copy in the chip's *open* block can sit on a wordline whose
  tail pages are not yet programmed; scrubbing would make those pages
  unusable (their cells end high-Vth, not erased), so the FTL pads them
  with dummy programs first;
* scrubbed pages remain *programmed* garbage until the block is erased,
  so they are left INVALID and reclaimed by normal GC.
"""

from __future__ import annotations

from repro.ftl.base import InvalidationEvent, PageMappedFtl


class ScrubBasedFtl(PageMappedFtl):
    """scrSSD: relocate wordline siblings, then scrub the wordline."""

    name = "scrSSD"
    tracks_secure = True
    #: every secured stale copy's wordline is scrubbed within the batch.
    sanitize_scope = "all"
    #: one-shot scrub pulse latency (Section 7).
    t_scrub_us = 100.0

    # ------------------------------------------------------------------
    def _sanitize_host_batch(self, events: list[InvalidationEvent]) -> None:
        for gb, wordline in self._wordlines_of(events):
            self._scrub_wordline(gb, wordline, relocate=True)

    def _finish_victim(
        self,
        chip_id: int,
        local_block: int,
        events: list[InvalidationEvent],
    ) -> None:
        # the victim is fully dead after GC, so no relocation is needed --
        # but its wordlines holding secured stale copies must be scrubbed
        # before the block waits (possibly long) for its lazy erase.
        for gb, wordline in self._wordlines_of(events):
            self._scrub_wordline(gb, wordline, relocate=False)
        self._retire_victim(chip_id, local_block)

    # ------------------------------------------------------------------
    def _wordlines_of(
        self, events: list[InvalidationEvent]
    ) -> list[tuple[int, int]]:
        """Distinct (global block, wordline) pairs holding secured events."""
        seen: set[tuple[int, int]] = set()
        out: list[tuple[int, int]] = []
        for event in events:
            if not event.was_secured:
                continue
            gb = self.block_of_gppa(event.gppa)
            offset = event.gppa % self.geometry.pages_per_block
            key = (gb, self.geometry.wordline_of(offset))
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def _scrub_wordline(self, gb: int, wordline: int, relocate: bool) -> None:
        with self.tel.tracer.span(
            "scrub_pass", cat="ftl.sanitize", block=gb, wordline=wordline
        ), self.timing.sanitize_region():
            self._scrub_wordline_inner(gb, wordline, relocate)

    def _scrub_wordline_inner(
        self, gb: int, wordline: int, relocate: bool
    ) -> None:
        chip_id, local_block = self.split_global_block(gb)
        base_offset = wordline * self.geometry.pages_per_wordline
        siblings = range(base_offset, base_offset + self.geometry.pages_per_wordline)
        if relocate:
            # pad FIRST: it pushes the chip's program cursor past this
            # wordline, so sibling relocations cannot land on the very
            # wordline the scrub pulse is about to destroy.
            self._pad_open_wordline(chip_id, local_block, wordline)
            moved = self._move_pages(
                self.status.live_pages(gb, siblings), "scrub-relocate"
            )
            self.stats.relocation_copies += len(moved)
        self.chips[chip_id].scrub_wordline(
            local_block, wordline, latency_us=self.t_scrub_us
        )
        self.timing.scrub(chip_id)
        self.stats.scrubs += 1
        for gppa in self.status.invalid_pages(gb, siblings):
            self.observer.on_sanitize(gppa, "scrub")

    def _pad_open_wordline(
        self, chip_id: int, local_block: int, wordline: int
    ) -> None:
        """Dummy-program a scrub target's unwritten tail pages.

        Only relevant when the wordline lives in the chip's open block and
        program order has not passed it yet; the pads keep the block's
        sequential-program invariant while letting the scrub pulse destroy
        the whole wordline safely.
        """
        stream = self.alloc.stream_of_block(chip_id, local_block)
        if stream is None:
            return
        last_offset = (wordline + 1) * self.geometry.pages_per_wordline - 1
        while True:
            position = self.alloc.active_position(chip_id, stream)
            if position is None:
                break
            active_block, next_offset = position
            if active_block != local_block or next_offset > last_offset:
                break
            gppa = self._program_new_page(
                chip_id, data=None, spare={"pad": True}, stream=stream
            )
            self.status.set_written(gppa, False)
            # pads are FTL-internal traffic, but the observer stream must
            # still see every page transition or downstream auditors (and
            # the runtime sanitizer's shadow table) lose track of them.
            self.observer.on_program(gppa, -1, None, False)
            self.status.set_invalid(gppa)
            self.observer.on_invalidate(gppa, -1, "pad")
