"""Power-loss recovery: rebuild the FTL's volatile state from flash.

A real SSD loses its RAM-resident L2P table, page-status table, and
allocation state on power failure; the FTL reconstructs them by scanning
every programmed page's spare-area annotations (LPA + write sequence
number + security bit -- exactly what the write path stores, Section 2.2
/ Figure 8's OOB usage).  The newest sequence number wins per LPA; every
older copy is stale.

The Evanesco interaction is the interesting part and a direct corollary
of the paper's design: pAP/bAP flags live in *flash cells*, so locks
survive power loss, and the recovery scan simply cannot read a locked
page -- the chip returns zeros, the scanner classifies the page as dead,
and sanitized data stays sanitized across power cycles with no FTL
metadata needed.

Recovery also closes half-written blocks by padding them with dummy
programs (standard practice: it keeps the sequential-program invariant
and makes the block reclaimable by GC).

Note on cryptSSD: the key store is modelled as persistent (real designs
journal it to flash); only the mapping structures are rebuilt here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.block import BlockState
from repro.flash.errors import ProgramFailError, UncorrectableError
from repro.ftl.allocator import BlockAllocator
from repro.ftl.base import InvalidationEvent, PageMappedFtl
from repro.ftl.mapping import L2PTable
from repro.ftl.page_status import StatusTable


@dataclass(frozen=True)
class RecoveryReport:
    """What the recovery scan found and rebuilt."""

    pages_scanned: int
    live_pages_recovered: int
    stale_pages_discarded: int
    locked_pages_skipped: int
    blocks_padded: int
    pad_programs: int
    #: pages the scan could not read even after the retry budget -- a
    #: program torn by the crash itself, typically.  They are classified
    #: stale (a torn page can never be the newest copy the host was
    #: acknowledged for) and reclaimed by GC like any dead page.
    unreadable_pages_skipped: int = 0


class PowerLossRecovery:
    """Rebuilds one FTL's volatile tables by scanning its chips."""

    def __init__(self, ftl: PageMappedFtl) -> None:
        self.ftl = ftl

    # ------------------------------------------------------------------
    def simulate_power_loss(self) -> None:
        """Drop every volatile structure (what a crash would destroy).

        Chip-resident state -- page contents, lock flags, erase counts --
        survives; the FTL's RAM tables and in-flight intents (the
        lazy-erase queue, the open-block cursor) do not.
        """
        ftl = self.ftl
        ftl.l2p = L2PTable(ftl.config.logical_pages, ftl.config.physical_pages)
        ftl.status = StatusTable(
            ftl.config.physical_pages, ftl.geometry.pages_per_block
        )
        ftl._pending_victims.clear()
        # RAM-resident fault bookkeeping dies with the power: the
        # grown-bad mirror is re-learned from the chips' RETIRED marks
        # during recovery, the condemnation intents are simply lost
        # (their blocks re-earn condemnation if they keep failing).
        ftl._bad_blocks.clear()
        ftl._condemned.clear()
        ftl._block_program_fails = [0] * len(ftl._block_program_fails)
        # the erase-pending *intent* is gone; physically these blocks are
        # just fully-programmed blocks again
        for chip in ftl.chips:
            for block in chip.blocks:
                if block.state is BlockState.ERASE_PENDING:
                    block.state = (
                        BlockState.FULL if block.is_full else BlockState.OPEN
                    )

    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Scan, pad, and rebuild; returns the recovery report."""
        with self.ftl.tel.tracer.span("recovery_scan", cat="ftl.recovery"):
            return self._recover_inner()

    def _recover_inner(self) -> RecoveryReport:
        ftl = self.ftl
        blocks_padded, pad_programs = self._pad_open_blocks()
        candidates, invalid, locked, scanned, unreadable = self._scan()
        winners = self._resolve(candidates)

        l2p = L2PTable(ftl.config.logical_pages, ftl.config.physical_pages)
        status = StatusTable(
            ftl.config.physical_pages, ftl.geometry.pages_per_block
        )
        stale = 0
        for lpa, (seq, gppa, secure) in winners.items():
            l2p.map(lpa, gppa)
            status.set_written(gppa, secure and ftl.tracks_secure)
        # readable secured losers still owe their sanitization: the cut
        # can land between a copy and the sanitize of its source.
        owed: list[InvalidationEvent] = []
        for seq, gppa, secure, lpa in candidates:
            winner_seq, winner_gppa, _ = winners[lpa]
            if winner_gppa == gppa:
                continue
            secure = secure and ftl.tracks_secure
            status.set_written(gppa, secure)
            status.set_invalid(gppa)
            stale += 1
            # a same-seq loser is a GC copy whose move was cut: the same
            # version as the live copy, so only "all"-scope variants
            # (not cryptSSD, whose key that version still uses) owe it
            if secure and (
                seq < winner_seq or ftl.sanitize_scope == "all"
            ):
                reason = "gc" if seq == winner_seq else "host-update"
                owed.append(InvalidationEvent(gppa, lpa, True, reason))
        for gppa in invalid:
            status.set_written(gppa, False)
            status.set_invalid(gppa)

        # served from each chip's incrementally maintained free set
        free_layout = [chip.free_blocks() for chip in ftl.chips]
        # the grown-bad table is chip-persistent (RETIRED block marks):
        # re-learn it so the allocator and GC keep excluding those blocks.
        retired_layout = [
            {
                block.index
                for block in chip.blocks
                if block.state is BlockState.RETIRED
            }
            for chip in ftl.chips
        ]
        ftl.l2p = l2p
        ftl.status = status
        ftl.alloc = BlockAllocator.from_layout(
            ftl.config.n_chips,
            ftl.geometry.blocks_per_chip,
            ftl.geometry.pages_per_block,
            free_layout,
            retired_blocks=retired_layout,
        )
        ftl._bad_blocks = {
            ftl.global_block(chip_id, index)
            for chip_id, retired in enumerate(retired_layout)
            for index in retired
        }
        ftl._pending_victims.clear()
        ftl._write_seq = (
            max((seq for seq, *_ in candidates), default=-1) + 1
        )
        # the rebuild happened outside the observer stream: a checked
        # FTL's shadow tables must re-adopt the recovered state.
        ftl.resync_checker()
        with ftl.timing.sanitize_region():
            ftl._sanitize_host_batch(owed)
        if ftl.checker is not None:
            # the resync dropped the sanitize tracking, so check the
            # device directly: every secured loser must now be dead
            ftl.checker.check_rebuild_leaks()
        ftl._ensure_space_all_touched(owed)
        return RecoveryReport(
            pages_scanned=scanned,
            live_pages_recovered=len(winners),
            stale_pages_discarded=stale,
            locked_pages_skipped=locked,
            blocks_padded=blocks_padded,
            pad_programs=pad_programs,
            unreadable_pages_skipped=unreadable,
        )

    # ------------------------------------------------------------------
    def _pad_open_blocks(self) -> tuple[int, int]:
        """Dummy-program the unwritten tail of every half-open block."""
        ftl = self.ftl
        blocks_padded = 0
        pad_programs = 0
        for chip_id, chip in enumerate(ftl.chips):
            for block in chip.blocks:
                if block.state is not BlockState.OPEN:
                    continue
                blocks_padded += 1
                while not block.is_full:
                    ppn = ftl.geometry.ppn(block.index, block.next_page)
                    try:
                        chip.program_page(ppn, None, {"pad": True})
                    except ProgramFailError:
                        # a torn pad is still a pad: the page is consumed
                        # and dead either way, so padding proceeds
                        ftl.stats.program_fails += 1
                    ftl.timing.program(chip_id)
                    ftl.stats.flash_programs += 1
                    pad_programs += 1
        return blocks_padded, pad_programs

    def _scan(self):
        """Read every programmed page's spare annotations."""
        ftl = self.ftl
        candidates: list[tuple[int, int, bool, int]] = []  # seq,gppa,secure,lpa
        invalid: list[int] = []
        locked = 0
        scanned = 0
        unreadable = 0
        for chip_id, chip in enumerate(ftl.chips):
            for block in chip.blocks:
                if block.state is BlockState.RETIRED:
                    # grown-bad: scrubbed at retirement, never scanned --
                    # its consumed pages are dead by construction
                    for offset in range(block.next_page):
                        invalid.append(
                            ftl.make_gppa(
                                chip_id, ftl.geometry.ppn(block.index, offset)
                            )
                        )
                    continue
                for offset in range(block.next_page):
                    ppn = ftl.geometry.ppn(block.index, offset)
                    gppa = ftl.make_gppa(chip_id, ppn)
                    scanned += 1
                    try:
                        result = ftl._read_flash_page(chip_id, ppn)
                    except UncorrectableError:
                        # torn by the crash mid-program (or a transient
                        # storm): it cannot be the newest acknowledged
                        # copy of anything, so classify it stale
                        ftl.stats.read_failures += 1
                        unreadable += 1
                        invalid.append(gppa)
                        continue
                    if result.blocked:
                        locked += 1
                        invalid.append(gppa)
                        continue
                    spare = result.spare
                    if "lpa" not in spare or "seq" not in spare:
                        invalid.append(gppa)  # pads, scrub residue, ...
                        continue
                    candidates.append(
                        (
                            int(spare["seq"]),
                            gppa,
                            bool(spare.get("secure", False)),
                            int(spare["lpa"]),
                        )
                    )
        return candidates, invalid, locked, scanned, unreadable

    @staticmethod
    def _resolve(
        candidates: list[tuple[int, int, bool, int]],
    ) -> dict[int, tuple[int, int, bool]]:
        """Newest sequence number wins per LPA."""
        winners: dict[int, tuple[int, int, bool]] = {}
        for seq, gppa, secure, lpa in candidates:
            current = winners.get(lpa)
            if current is None or seq > current[0]:
                winners[lpa] = (seq, gppa, secure)
        return winners
