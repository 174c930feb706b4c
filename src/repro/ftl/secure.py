"""Evanesco-aware FTL: the secSSD lock manager -- Section 6.

When a *secured* page is invalidated (host update, trim, or a GC copy),
the lock manager sanitizes it immediately:

* normally with a ``pLock`` of the single page;
* with one ``bLock`` of the whole block when (1) every remaining page of
  the block needs sanitization -- i.e. the block is fully programmed and
  fully dead -- and (2) the estimated pLock cost for the batch exceeds
  ``tbLock`` (Section 6's policy; with tpLock = 100 us and tbLock =
  300 us, batches of 4+ pages take the block path).

``secSSD_nobLock`` disables the second rule, which is the ablation the
paper uses to isolate bLock's contribution (Fig. 14a discussion).

Lock operations can *fail* (Section 4.1's k=9 pAP redundancy exists
precisely because flag-cell programming is unreliable; the fault
injector models the residual majority-loss case).  Every lock is
therefore issued verify-after-write: the manager re-reads the AP state
and re-pulses up to ``config.lock_retry_limit`` times (the pulses are
monotonic, so a retry programs the cells the last pulse missed).  A
persistently failing pLock escalates to a bLock of the whole block
(after evacuating live pages and padding); a persistently failing bLock
escalates to an immediate erase; a failing erase scrubs and retires the
block.  Each step is strictly stronger, so the security invariant --
invalidated secured pages are unreadable by the end of the batch --
holds under any injected fault, and the runtime sanitizer's probes
verify it on the actual chip state.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.evanesco_chip import EvanescoChip
from repro.flash.errors import ProgramFailError
from repro.ftl.base import InvalidationEvent, PageMappedFtl


class SecureFtl(PageMappedFtl):
    """secSSD: Evanesco-aware FTL with the pLock/bLock lock manager."""

    name = "secSSD"
    tracks_secure = True
    #: every secured stale copy (host update/trim, GC, refresh) is
    #: locked before the batch completes.
    sanitize_scope = "all"
    use_block_lock = True
    #: minimum secured pages in a fully-dead block before bLock is used;
    #: None derives the break-even from the latency constants (Section 6:
    #: n * tpLock > tbLock, i.e. 4 pages at the paper's timings).
    block_lock_threshold_pages: int | None = None

    def _make_chip(self, chip_id: int) -> EvanescoChip:
        return EvanescoChip(
            self.geometry,
            pe_limit=self.config.pe_limit,
            seed=self.seed * 7919 + chip_id,
        )

    # ------------------------------------------------------------------
    def _sanitize_host_batch(self, events: list[InvalidationEvent]) -> None:
        self._lock_invalidated(events)

    def _finish_victim(
        self,
        chip_id: int,
        local_block: int,
        events: list[InvalidationEvent],
    ) -> None:
        # GC moved every live page out, so the victim is fully dead: a
        # single bLock can cover all its secured stale copies at once.
        disposed = self._lock_invalidated(events)
        if self.global_block(chip_id, local_block) in disposed:
            # the fallback chain already erased (or retired) the victim;
            # queueing it for lazy erase again would double-handle it
            return
        self._retire_victim(chip_id, local_block)

    # ------------------------------------------------------------------
    def _lock_invalidated(self, events: list[InvalidationEvent]) -> set[int]:
        """Sanitize the secured subset of an invalidation batch.

        Returns the set of global block ids the fallback chain *disposed
        of* (erased and returned to the allocator, or scrubbed and
        retired) so that callers holding their own claim on a block --
        GC's ``_finish_victim`` -- do not retire it a second time.
        """
        by_block: dict[int, list[InvalidationEvent]] = defaultdict(list)
        for event in events:
            if event.was_secured:
                by_block[self.block_of_gppa(event.gppa)].append(event)
        if not by_block:
            return set()
        with self.tel.tracer.span(
            "lock_batch", cat="ftl.sanitize", blocks=len(by_block)
        ):
            return self._lock_blocks(by_block)

    def _lock_blocks(
        self, by_block: dict[int, list[InvalidationEvent]]
    ) -> set[int]:
        disposed: set[int] = set()
        for gb, block_events in by_block.items():
            chip_id, local_block = self.split_global_block(gb)
            chip = self.chips[chip_id]
            if chip.block_locked(local_block):
                # an earlier bLock already covers everything in the block
                for event in block_events:
                    self.observer.on_sanitize(event.gppa, "block_lock")
                continue
            if self._should_block_lock(gb, len(block_events)):
                if not self._block_lock_verified(chip_id, local_block, block_events):
                    if self._fallback_erase(gb):
                        disposed.add(gb)
                continue
            failed = [
                event
                for event in block_events
                if not self._plock_verified(chip_id, event)
            ]
            if failed and self._fallback_block_lock(gb, failed):
                disposed.add(gb)
        return disposed

    # ------------------------------------------------------------------
    # verified lock primitives
    # ------------------------------------------------------------------
    def _plock_verified(self, chip_id: int, event: InvalidationEvent) -> bool:
        """pLock one stale copy, verify, retry; True when it stuck."""
        chip = self.chips[chip_id]
        _, ppn = self.split_gppa(event.gppa)
        attempts = 1 + self.config.lock_retry_limit
        for attempt in range(attempts):
            chip.plock(ppn)
            self.timing.plock(chip_id)
            self.stats.plocks += 1
            if chip.page_locked(ppn):
                self.observer.on_sanitize(event.gppa, "plock")
                return True
            if attempt + 1 < attempts:
                self.stats.lock_retries += 1
        self.stats.lock_failures += 1
        return False

    def _block_lock_verified(
        self,
        chip_id: int,
        local_block: int,
        covered: list[InvalidationEvent],
    ) -> bool:
        """bLock a block, verify, retry; reports coverage on success."""
        chip = self.chips[chip_id]
        attempts = 1 + self.config.lock_retry_limit
        for attempt in range(attempts):
            chip.block_lock(local_block)
            self.timing.block_lock(chip_id)
            self.stats.block_locks += 1
            if chip.block_locked(local_block):
                for event in covered:
                    self.observer.on_sanitize(event.gppa, "block_lock")
                return True
            if attempt + 1 < attempts:
                self.stats.lock_retries += 1
        self.stats.lock_failures += 1
        return False

    # ------------------------------------------------------------------
    # the fallback chain: pLock -> bLock -> erase -> scrub+retire
    # ------------------------------------------------------------------
    def _fallback_block_lock(
        self, gb: int, failed: list[InvalidationEvent]
    ) -> bool:
        """Escalate unlockable pages to a bLock of their whole block.

        The block may be live and even open, so this is the expensive
        path: close its stream cursor, pad it full, relocate its live
        pages, then bLock.  Returns True when the chain went all the way
        to disposing of the block (erase or scrub+retire).

        Note: this escalation runs even for ``secSSD_nobLock`` --
        ``use_block_lock`` is the Section-6 *batching policy*, whereas
        this is a reliability escalation; disabling the policy ablation
        must not weaken the sanitization guarantee.
        """
        self.stats.fallback_block_locks += 1
        chip_id, local_block = self.split_global_block(gb)
        with self.tel.tracer.span(
            "lock_fallback", cat="ftl.sanitize", chip=chip_id, block=gb
        ), self.timing.sanitize_region():
            stream = self.alloc.stream_of_block(chip_id, local_block)
            if stream is not None:
                self.alloc.close_active(chip_id, stream)
            self._pad_block_full(chip_id, local_block)
            moved = self._move_pages(
                self.status.live_pages(gb), "fallback-relocate"
            )
            self.stats.relocation_copies += len(moved)
            covered = failed + [e for e in moved if e.was_secured]
            if self._block_lock_verified(chip_id, local_block, covered):
                return False
            return self._fallback_erase(gb)

    def _fallback_erase(self, gb: int) -> bool:
        """Last resort: erase the block now (scrub+retire if that fails).

        Erase resets the AP flags *and* the cells, so the stale copies
        are gone outright; the sanitizer hears it via ``on_erase``.  A
        status-failed erase lands in ``_retire_bad_block``, which scrubs
        every programmed wordline before retiring -- still sanitized.
        Returns True iff the block was disposed of (always, here).
        """
        self.stats.fallback_erases += 1
        chip_id, local_block = self.split_global_block(gb)
        with self.timing.sanitize_region():
            if self._erase_block_now(chip_id, local_block):
                self.stats.sanitize_erases += 1
                self.alloc.add_erased(chip_id, local_block)
        return True

    def _pad_block_full(self, chip_id: int, local_block: int) -> None:
        """Dummy-program a block's unwritten tail so it can be bLocked.

        An open block cannot be taken out of service while host writes
        could still land in it; the pads close it the same way power-loss
        recovery closes half-written blocks.  A torn pad is still a pad.
        """
        chip = self.chips[chip_id]
        block = chip.blocks[local_block]
        while not block.is_full:
            ppn = self.geometry.ppn(local_block, block.next_page)
            gppa = self.make_gppa(chip_id, ppn)
            try:
                chip.program_page(ppn, None, {"pad": True})
            except ProgramFailError:
                self.stats.program_fails += 1
            self.timing.program(chip_id)
            self.stats.flash_programs += 1
            self.status.set_written(gppa, False)
            self.observer.on_program(gppa, -1, None, False)
            self.status.set_invalid(gppa)
            self.observer.on_invalidate(gppa, -1, "pad")

    def _should_block_lock(self, gb: int, n_secured: int) -> bool:
        """Section 6 policy: whole-block lock only for fully-dead blocks
        whose batch would cost more in pLocks than one bLock."""
        if not self.use_block_lock:
            return False
        chip_id, local_block = self.split_global_block(gb)
        block = self.chips[chip_id].blocks[local_block]
        fully_dead = block.is_full and self.status.live_count(gb) == 0
        if not fully_dead:
            return False
        if self.block_lock_threshold_pages is not None:
            return n_secured >= self.block_lock_threshold_pages
        return n_secured * self.config.t_plock_us > self.config.t_block_lock_us


class SecureFtlNoBlockLock(SecureFtl):
    """secSSD_nobLock: the pLock-only ablation."""

    name = "secSSD_nobLock"
    use_block_lock = False
