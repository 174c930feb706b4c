"""Baseline page-mapped FTL (no sanitization support).

Implements the standard append-only FTL of Section 2.2: host writes go to
the next free page of a per-chip active block (round-robin striping
across chips for parallelism), the L2P table is updated, the overwritten
physical page is merely marked *invalid*, and greedy garbage collection
reclaims the most-invalidated blocks with **lazy erase** (Section 5.4).

This class is also the extension point for every evaluated SSD variant:

* :class:`~repro.ftl.secure.SecureFtl` (secSSD / secSSD_nobLock)
  overrides the sanitization hooks with pLock/bLock;
* :class:`~repro.ftl.erase_based.EraseBasedFtl` (erSSD) relocates and
  immediately erases;
* :class:`~repro.ftl.scrub_based.ScrubBasedFtl` (scrSSD) relocates
  wordline siblings and scrubs.

The baseline itself records every write as plain ``valid`` data -- it is
the "SSD with no data sanitization support" all Figure 14 results are
normalized to.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from typing import TYPE_CHECKING, NamedTuple

from repro.checkers.sanitizer import FtlSanitizer, default_checked
from repro.faults import FaultInjector, FaultPlan
from repro.flash.block import BlockState
from repro.flash.chip import FlashChip, ReadResult
from repro.flash.constants import LOGICAL_TIME_WRITE_BYTES
from repro.flash.errors import (
    EraseFailError,
    ProgramFailError,
    UncorrectableError,
    WearOutError,
)
from repro.flash.wear import WearReadGate
from repro.ftl.allocator import BlockAllocator, GC_STREAM, HOST_STREAM
from repro.ftl.gc_policies import VictimView, policy_by_name
from repro.ftl.mapping import L2PTable, UNMAPPED
from repro.ftl.observer import FtlObserver, NullObserver
from repro.ftl.page_status import PageStatus, StatusTable
from repro.ftl.request import IoRequest, RequestOp
from repro.ftl.stats import DeviceStats
from repro.ftl.timing import TimingModel
from repro.telemetry import DISABLED, AnyTelemetry, Telemetry

if TYPE_CHECKING:
    from repro.ssd.config import SSDConfig


class InvalidationEvent(NamedTuple):
    """One physical page turning stale, with its prior status.

    A ``NamedTuple``: one is built per invalidated page (every host
    update/trim and every GC move), where tuple construction is several
    times cheaper than a frozen-dataclass ``__init__``.
    """

    gppa: int
    lpa: int
    was_secured: bool
    reason: str  # "host-update" | "host-trim" | "gc"


class PageMappedFtl:
    """Baseline append-only page-mapped FTL."""

    name = "baseline"
    #: whether writes without INSEC_WRITE are tracked as SECURED.
    tracks_secure = False
    #: sanitization guarantee the runtime checker enforces (see
    #: :data:`repro.checkers.sanitizer.SANITIZE_SCOPES`): "none" here --
    #: the baseline leaves stale data in place until GC.
    sanitize_scope = "none"

    def __init__(
        self,
        config: SSDConfig,
        observer: FtlObserver | None = None,
        seed: int = 0,
        checked: bool | None = None,
        check_interval: int | None = None,
        faults: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.geometry = config.geometry
        self.observer: FtlObserver = observer or NullObserver()
        self.seed = seed
        #: telemetry session for macro-phase spans (GC, refresh, and the
        #: variants' sanitization storms); the DISABLED singleton's
        #: spans are shared no-ops, so untraced runs pay ~nothing.
        self.tel: AnyTelemetry = telemetry if telemetry is not None else DISABLED
        self.timing = TimingModel.from_config(config)
        self.stats = DeviceStats()
        self.chips: list[FlashChip] = [
            self._make_chip(i) for i in range(config.n_chips)
        ]
        #: one injector shared by all chips (global op index) or None.
        self.fault_injector: FaultInjector | None = None
        if faults is not None:
            self.fault_injector = FaultInjector(faults)
            for chip in self.chips:
                chip.fault_hook = self.fault_injector
        #: one wear gate shared by all chips (wear is per-block state;
        #: the gate itself only holds the memoized RBER cache) or None.
        self.wear_gate: WearReadGate | None = None
        if config.wear_coupling:
            self.wear_gate = WearReadGate.for_cell_type(
                self.geometry.cell_type
            )
            for chip in self.chips:
                chip.wear_gate = self.wear_gate
        self.l2p = L2PTable(config.logical_pages, config.physical_pages)
        self.status = StatusTable(
            config.physical_pages, self.geometry.pages_per_block
        )
        self.alloc = BlockAllocator(
            config.n_chips,
            self.geometry.blocks_per_chip,
            self.geometry.pages_per_block,
        )
        if config.wear_aware_allocation:
            self.alloc.wear_fn = self._block_wear
        self._pending_victims: set[int] = set()  # global block ids
        #: chips whose wear spread must be re-checked (marked by each
        #: erase, drained at the end of the host request -- migrating
        #: inline from under an in-flight program would interleave page
        #: programs within one block).  Checkpointed: a residue can
        #: survive a request when a migration's own GC re-marks a chip.
        self._wear_level_due: set[int] = set()
        #: cached geometry scalars: the address helpers below run once
        #: per flash op, and a plain attribute beats a property call
        self._pages_per_chip = self.geometry.pages_per_chip
        self._pages_per_block = self.geometry.pages_per_block
        self._blocks_per_chip = self.geometry.blocks_per_chip
        self._rr_chip = 0
        self._write_seq = 0
        self._logical_time = 0
        self._gc_policy = policy_by_name(config.gc_policy)
        n_blocks = config.n_chips * self.geometry.blocks_per_chip
        self._block_last_program: list[int] = [0] * n_blocks
        #: host reads per block since the last erase (read-disturb cap).
        self._block_reads: list[int] = [0] * n_blocks
        #: grown-bad table: global ids of retired blocks (mirrors the
        #: persistent BlockState.RETIRED marks on the chips).
        self._bad_blocks: set[int] = set()
        #: blocks over the program-fail threshold, awaiting retirement
        #: at their next collection (RAM intent, re-learned after crash).
        self._condemned: set[int] = set()
        #: program status-fails per block since its last erase.
        self._block_program_fails: list[int] = [0] * n_blocks
        #: optional runtime invariant checker (repro.checkers.sanitizer).
        self._sanitizer: FtlSanitizer | None = None
        if checked is None:
            checked = default_checked()
        if checked:
            self._sanitizer = FtlSanitizer(self, interval=check_interval)

    # ------------------------------------------------------------------
    # chip construction and address arithmetic
    # ------------------------------------------------------------------
    def _make_chip(self, chip_id: int) -> FlashChip:
        return FlashChip(self.geometry, pe_limit=self.config.pe_limit)

    def _block_wear(self, chip_id: int, local_block: int) -> int:
        """Wear oracle the allocator consults for wear-aware allocation."""
        return self.chips[chip_id].blocks[local_block].erase_count

    @property
    def n_chips(self) -> int:
        return self.config.n_chips

    @property
    def pages_per_chip(self) -> int:
        return self.geometry.pages_per_chip

    def split_gppa(self, gppa: int) -> tuple[int, int]:
        """Global PPA -> (chip id, chip-local ppn)."""
        return divmod(gppa, self._pages_per_chip)

    def make_gppa(self, chip_id: int, ppn: int) -> int:
        return chip_id * self._pages_per_chip + ppn

    def global_block(self, chip_id: int, local_block: int) -> int:
        return chip_id * self._blocks_per_chip + local_block

    def split_global_block(self, global_block: int) -> tuple[int, int]:
        return divmod(global_block, self._blocks_per_chip)

    def block_of_gppa(self, gppa: int) -> int:
        return gppa // self._pages_per_block

    @property
    def logical_time(self) -> int:
        """Logical clock: one tick per 4-KiB of host writes (Section 3)."""
        return self._logical_time

    # ------------------------------------------------------------------
    # host interface
    # ------------------------------------------------------------------
    def submit(self, request: IoRequest) -> None:
        """Execute one host request synchronously."""
        if request.op is RequestOp.READ:
            self._host_read(request)
        elif request.op is RequestOp.WRITE:
            self._host_write(request)
        elif request.op is RequestOp.TRIM:
            self._host_trim(request)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown op {request.op!r}")
        if self._wear_level_due:
            self._drain_wear_leveling()
        if self._sanitizer is not None:
            self._sanitizer.check_batch()

    @property
    def checker(self) -> FtlSanitizer | None:
        """The attached runtime invariant sanitizer, if ``checked``.

        Tooling (the ``repro.sim`` engine, ``repro check``) reads its
        counters to report how much verification ran alongside a run.
        """
        return self._sanitizer

    def resync_checker(self) -> None:
        """Tell an attached sanitizer the tables were rebuilt wholesale.

        Power-loss recovery replaces the L2P/status tables without
        emitting observer events; a checked FTL must re-adopt the new
        state as ground truth afterwards.  No-op when unchecked.
        """
        if self._sanitizer is not None:
            self._sanitizer.resync()

    def _host_read(self, request: IoRequest) -> None:
        refresh_candidates: set[int] = set()
        for lpa in request.lpas():
            self.stats.host_reads += 1
            gppa = self.l2p.lookup(lpa)
            if gppa == UNMAPPED:
                continue  # unmapped reads return zeros without flash access
            chip_id, ppn = self.split_gppa(gppa)
            try:
                self._read_flash_page(chip_id, ppn)
            except UncorrectableError:
                # retry budget exhausted: surface as a host read error
                # (EIO) and keep serving; the mapping stays intact for
                # later heroic recovery attempts.
                self.stats.read_failures += 1
            threshold = self.config.read_refresh_threshold
            if threshold is not None:
                gb = self.block_of_gppa(gppa)
                self._block_reads[gb] += 1
                if self._block_reads[gb] >= threshold:
                    refresh_candidates.add(gb)
        for gb in refresh_candidates:
            self._refresh_block(gb)

    def _host_write(self, request: IoRequest) -> None:
        secure = request.secure and self.tracks_secure
        events: list[InvalidationEvent] = []
        for lpa in request.lpas():
            self.stats.host_writes += 1
            chip_id = self._pick_chip()
            self._ensure_space(chip_id)
            gppa = self._program_new_page(
                chip_id,
                data=(lpa, request.tag, self._write_seq),
                # spare-area annotations: everything power-loss recovery
                # needs to rebuild the L2P table (Section 2.2 / Fig. 8)
                spare={
                    "lpa": lpa,
                    "tag": request.tag,
                    "seq": self._write_seq,
                    "secure": secure,
                },
            )
            self._write_seq += 1
            # the L2P update is the commit point: the old copy turns stale
            # in the same instant the new copy becomes the live version.
            old = self.l2p.map(lpa, gppa)
            if old != UNMAPPED:
                events.append(self._invalidate(old, lpa, "host-update"))
            self.status.set_written(gppa, secure)
            self.observer.on_program(gppa, lpa, request.tag, secure)
        # sanitization is part of the same request: it completes before
        # logical time advances (the lock manager acts "immediately").
        with self.timing.sanitize_region():
            self._sanitize_host_batch(events)
        self._ensure_space_all_touched(events)
        ticks = request.npages * (
            self.geometry.page_size_bytes // LOGICAL_TIME_WRITE_BYTES
        )
        self._logical_time += ticks
        self.observer.on_logical_tick(ticks)

    def _host_trim(self, request: IoRequest) -> None:
        events: list[InvalidationEvent] = []
        for lpa in request.lpas():
            self.stats.host_trims += 1
            old = self.l2p.unmap(lpa)
            if old != UNMAPPED:
                events.append(self._invalidate(old, lpa, "host-trim"))
        with self.timing.sanitize_region():
            self._sanitize_host_batch(events)
        self._ensure_space_all_touched(events)

    # ------------------------------------------------------------------
    # fault-tolerant flash access
    # ------------------------------------------------------------------
    def _read_flash_page(
        self, chip_id: int, ppn: int, attempts: int | None = None
    ) -> ReadResult:
        """Read with the bounded retry loop real controllers implement.

        Transient sense failures re-roll on the next attempt; torn pages
        fail deterministically and exhaust the budget (``attempts``, by
        default the configured retry limit).  Every attempt is a real
        flash read (timed and counted); the final failure re-raises for
        the caller to translate.
        """
        if attempts is None:
            attempts = self.config.read_retry_limit
        chip_read = self.chips[chip_id].read_page
        timing_read = self.timing.read
        stats = self.stats
        for attempt in range(attempts):
            try:
                result = chip_read(ppn)
            except UncorrectableError:
                timing_read(chip_id)
                stats.flash_reads += 1
                if attempt + 1 >= attempts:
                    raise
                stats.read_retries += 1
            else:
                timing_read(chip_id)
                stats.flash_reads += 1
                return result
        raise AssertionError("unreachable")  # pragma: no cover

    def _reread_live_page(
        self, chip_id: int, ppn: int, error: UncorrectableError
    ) -> ReadResult:
        """Finish reading a live page whose first read raised ``error``.

        Accounts that attempt, spends the rest of the retry budget, then
        falls back to :meth:`_salvage_read`: a live page must not be lost
        to a transient fault storm.  The counts match one
        :meth:`_read_flash_page` call followed by that fallback.
        """
        self.timing.read(chip_id)
        self.stats.flash_reads += 1
        retries = self.config.read_retry_limit - 1
        try:
            if retries == 0:
                raise error  # the budget was one attempt
            self.stats.read_retries += 1
            return self._read_flash_page(chip_id, ppn, retries)
        except UncorrectableError:
            self.stats.read_failures += 1
            return self._salvage_read(chip_id, ppn)

    def _salvage_read(self, chip_id: int, ppn: int) -> ReadResult:
        """Last-resort read of a live page past the retry budget.

        Models the soft-decode / voltage-shift heroics controllers keep
        for GC of a must-not-lose page.  Injection and the wear gate are
        suspended: salvage succeeds against transient faults and against
        wear-degraded (but physically intact) cells -- the only ways a
        *live* page can exhaust the normal budget -- preserving the L2P
        bijection.
        """
        self.stats.salvage_reads += 1
        self.timing.read(chip_id)
        self.stats.flash_reads += 1
        with self.faults_suspended():
            return self.chips[chip_id].read_page(ppn)

    @contextmanager
    def faults_suspended(self) -> Iterator[None]:
        """Suspend fault injection and the wear gate for the scope."""
        with ExitStack() as stack:
            if self.fault_injector is not None:
                stack.enter_context(self.fault_injector.suspended())
            if self.wear_gate is not None:
                stack.enter_context(self.wear_gate.suspended())
            yield

    def probe_read(self, chip_id: int, ppn: int) -> ReadResult:
        """Out-of-band verification read that leaves no trace.

        Runs with faults suspended and restores the chip's operation
        counters, so a checked or audited run reports identical
        statistics *and* an identical fault sequence to a plain one.
        """
        chip = self.chips[chip_id]
        stats = chip.stats
        saved = stats.reads, stats.busy_time_us
        try:
            with self.faults_suspended():
                return chip.read_page(ppn)
        finally:
            stats.reads, stats.busy_time_us = saved

    # ------------------------------------------------------------------
    # write-path plumbing
    # ------------------------------------------------------------------
    def _pick_chip(self) -> int:
        chip_id = self._rr_chip
        self._rr_chip = (self._rr_chip + 1) % self.n_chips
        return chip_id

    def _program_new_page(
        self, chip_id: int, data: object, spare: dict, stream: str = HOST_STREAM
    ) -> int:
        """Allocate + program one page on a chip (no GC trigger).

        Survives injected faults: a program status-fail consumes the
        torn page (marked dead) and the write remaps to the next free
        page; a failed lazy erase retires the grown-bad block and
        allocation moves on to another block.
        """
        pages_per_block = self._pages_per_block
        guard = self._blocks_per_chip * pages_per_block
        chip_program = self.chips[chip_id].program_page
        alloc_page = self.alloc.allocate_page
        timing_program = self.timing.program
        stats = self.stats
        gppa_base = chip_id * self._pages_per_chip
        while guard > 0:
            guard -= 1
            block, offset, erase_block = alloc_page(chip_id, stream)
            if erase_block is not None and not self._erase_block_now(
                chip_id, erase_block
            ):
                # the block was scrubbed + retired (allocator cursor
                # dropped); pick up a different block next iteration
                continue
            # allocator addresses are in range by construction, so the
            # geometry.ppn / helper bounds checks are inlined away here
            ppn = block * pages_per_block + offset
            gb = chip_id * self._blocks_per_chip + block
            try:
                chip_program(ppn, data, spare)
            except ProgramFailError:
                # rare path: spelled self.* so the SIM06 accounting
                # pairing stays visible to the lint
                self.timing.program(chip_id)
                self.stats.flash_programs += 1
                self._note_program_failure(gb, gppa_base + ppn)
                continue
            timing_program(chip_id)
            stats.flash_programs += 1
            self._block_last_program[gb] = stats.flash_programs
            return gppa_base + ppn
        raise RuntimeError(
            f"chip {chip_id}: no programmable page found (fault storm)"
        )

    def _note_program_failure(self, gb: int, gppa: int) -> None:
        """Account one torn page and condemn its block over threshold.

        The torn page is physically consumed, so it runs through the
        observer stream like a zero-length pad -- shadow checkers track
        it -- and ends up INVALID (GC reclaims it with the block).
        """
        self.stats.program_fails += 1
        self.status.set_written(gppa, False)
        self.observer.on_program(gppa, -1, None, False)
        self.status.set_invalid(gppa)
        self.observer.on_invalidate(gppa, -1, "program-fail")
        self._block_program_fails[gb] += 1
        threshold = self.config.program_fail_retire_threshold
        if (
            threshold > 0
            and self._block_program_fails[gb] >= threshold
            and gb not in self._bad_blocks
        ):
            self._condemned.add(gb)

    def _erase_block_now(self, chip_id: int, local_block: int) -> bool:
        """Erase one block; a status-fail scrubs + retires it instead.

        Returns True when the block is erased and reusable, False when
        it went to the grown-bad table (its pages stay INVALID).  Every
        erase in the FTL -- lazy reuse, sanitize-now, fallback chains --
        funnels through here, so this is the single place P/E exhaustion
        (``WearOutError``) is translated into grown-bad retirement: the
        worn block is scrubbed (scrub pulses do not need the erase
        circuitry, so the sanitization guarantee survives end-of-life)
        and pulled from service like any other bad block.
        """
        gb = self.global_block(chip_id, local_block)
        try:
            self.chips[chip_id].erase_block(local_block)
        except EraseFailError:
            self.stats.erase_fails += 1
            self._retire_bad_block(chip_id, local_block)
            return False
        except WearOutError:
            # raised before any erase pulse: the block still holds its
            # data and its counters; retire it the scrubbed way.
            self.stats.worn_out_blocks += 1
            if self.stats.worn_out_blocks == 1:
                self.stats.host_writes_at_first_wearout = self.stats.host_writes
            self._retire_bad_block(chip_id, local_block)
            return False
        self.timing.erase(chip_id)
        self.stats.flash_erases += 1
        self.status.set_erased_block(gb)
        self._pending_victims.discard(gb)
        self._block_reads[gb] = 0
        self._block_program_fails[gb] = 0
        self.observer.on_erase(gb)
        if self.config.wear_leveling_threshold is not None:
            self._wear_level_due.add(chip_id)
        return True

    def _retire_bad_block(self, chip_id: int, local_block: int) -> None:
        """Grown-bad retirement: destroy residual data, pull from service.

        The data a failed erase leaves behind can include secured stale
        copies, so every programmed wordline is scrubbed first (scrub
        pulses do not depend on the erase circuitry) -- the sanitization
        guarantee survives the fault.  The RETIRED mark lives on the
        chip, so the grown-bad table persists across power loss.
        """
        gb = self.global_block(chip_id, local_block)
        chip = self.chips[chip_id]
        block = chip.blocks[local_block]
        for wordline in range(self.geometry.wordlines_per_block):
            if wordline * self.geometry.pages_per_wordline >= block.next_page:
                break
            chip.scrub_wordline(local_block, wordline)
            self.timing.scrub(chip_id)
            self.stats.scrubs += 1
        for gppa in self.status.invalid_pages(gb):
            self.observer.on_sanitize(gppa, "scrub")
        block.mark_retired()
        self.alloc.retire_block(chip_id, local_block)
        self._pending_victims.discard(gb)
        self._condemned.discard(gb)
        self._bad_blocks.add(gb)
        self.stats.grown_bad_blocks += 1

    def _invalidate(self, gppa: int, lpa: int, reason: str) -> InvalidationEvent:
        prev = self.status.set_invalid(gppa)
        self.observer.on_invalidate(gppa, lpa, reason)
        # tuple.__new__ skips the NamedTuple's generated __new__ frame
        return tuple.__new__(
            InvalidationEvent, (gppa, lpa, prev is PageStatus.SECURED, reason)
        )

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def _ensure_space(self, chip_id: int) -> None:
        """Run GC on a chip until its block reserve is healthy.

        GC starts when the reserve drops below ``gc_threshold_blocks`` and
        keeps collecting until ``gc_target_blocks`` (hysteresis, so GC
        work arrives in bursts instead of once per write).
        """
        if self.alloc.reserve_blocks(chip_id) >= self.config.gc_threshold_blocks:
            return
        guard = self.geometry.blocks_per_chip + 1
        while (
            self.alloc.reserve_blocks(chip_id) < self.config.gc_target_blocks
            and guard > 0
        ):
            if not self._collect_chip(chip_id):
                break
            guard -= 1

    def _ensure_space_all_touched(self, events: list[InvalidationEvent]) -> None:
        """Re-check reserves of chips touched by sanitization relocations."""
        touched = {self.split_gppa(e.gppa)[0] for e in events}
        for chip_id in touched:
            self._ensure_space(chip_id)

    def _select_victim(self, chip_id: int) -> int | None:
        """Pick a GC victim using the configured policy.

        Only fully-programmed, non-pending, non-active blocks with at
        least one invalid page are candidates (a fully-live victim would
        make no progress regardless of policy).
        """
        chip = self.chips[chip_id]
        actives = set(self.alloc.active_blocks(chip_id))
        best: int | None = None
        best_score = float("-inf")
        for local_block in range(self.geometry.blocks_per_chip):
            gb = self.global_block(chip_id, local_block)
            if gb in self._pending_victims or local_block in actives:
                continue
            if gb in self._bad_blocks:
                continue  # grown-bad: nothing to reclaim, ever
            block = chip.blocks[local_block]
            if not block.is_full:
                continue
            invalid = self.status.invalid_count(gb)
            if invalid == 0:
                continue
            if gb in self._condemned:
                # over the program-fail threshold: drain it first so the
                # retirement happens before more writes land near it
                return local_block
            score = self._gc_policy(
                VictimView(
                    global_block=gb,
                    invalid_pages=invalid,
                    live_pages=self.status.live_count(gb),
                    pages_per_block=self.geometry.pages_per_block,
                    erase_count=block.erase_count,
                    last_program_seq=self._block_last_program[gb],
                    now_seq=self.stats.flash_programs,
                    pe_limit=self.config.pe_limit,
                )
            )
            if score > best_score:
                best_score = score
                best = local_block
        return best

    def _collect_chip(self, chip_id: int) -> bool:
        """One GC round: evacuate one victim block; returns success."""
        victim = self._select_victim(chip_id)
        if victim is None:
            return False
        gb = self.global_block(chip_id, victim)
        self.stats.gc_invocations += 1
        with self.tel.tracer.span("gc", cat="ftl.gc", chip=chip_id, block=gb):
            events = self._move_pages(self.status.live_pages(gb), "gc")
            self.stats.gc_copies += len(events)
            self._finish_victim(chip_id, victim, events)
        return True

    def _move_pages(
        self, gppas: list[int], reason: str
    ) -> list[InvalidationEvent]:
        """Copy live pages, in order, to fresh pages on their own chips
        and remap each; returns one invalidation event per moved page.

        Used by GC, refresh and wear leveling, and by the relocation
        passes of the erase-, scrub- and lock-based sanitizers.  The
        caller accounts the copies in the appropriate stats bucket.
        Every table and callable is looked up once per batch, and the
        first read attempt is inlined: a relocation storm moves tens of
        thousands of pages.
        """
        pages_per_chip = self._pages_per_chip
        chips, stats, timing_read = self.chips, self.stats, self.timing.read
        reverse, remap = self.l2p.reverse, self.l2p.map
        set_invalid, set_written = self.status.set_invalid, self.status.set_written
        on_invalidate = self.observer.on_invalidate
        on_program = self.observer.on_program
        program = self._program_new_page
        stream = GC_STREAM if self.config.separate_gc_stream else HOST_STREAM
        events: list[InvalidationEvent] = []
        for gppa in gppas:
            chip_id, ppn = divmod(gppa, pages_per_chip)  # split_gppa, inlined
            lpa = reverse(gppa)
            try:
                result = chips[chip_id].read_page(ppn)
            except UncorrectableError as error:
                result = self._reread_live_page(chip_id, ppn, error)
            else:
                timing_read(chip_id)
                stats.flash_reads += 1
            # result.spare is the read's own copy: the new page stores it
            spare = result.spare
            new_gppa = program(chip_id, result.data, spare, stream)
            old = remap(lpa, new_gppa)
            assert old == gppa, "page move raced with the L2P table"
            was_secured = set_invalid(gppa) is PageStatus.SECURED
            on_invalidate(gppa, lpa, reason)
            set_written(new_gppa, was_secured)
            on_program(new_gppa, lpa, spare.get("tag"), was_secured)
            events.append(
                tuple.__new__(
                    InvalidationEvent, (gppa, lpa, was_secured, reason)
                )
            )
        return events

    # ------------------------------------------------------------------
    # read-disturb refresh (Section 6's "flash management task" family)
    # ------------------------------------------------------------------
    def _refresh_block(self, gb: int) -> None:
        """Relocate a heavily-read block's live data and retire it.

        Like GC, refresh is a flash-management move of valid pages --
        so the variant's sanitization hook runs on the stale copies it
        leaves behind (a secured page's old copy gets locked/scrubbed/
        erased exactly as if GC had moved it).
        """
        chip_id, local_block = self.split_global_block(gb)
        if gb in self._pending_victims:
            return  # already collected; erase will reset the counter
        if local_block in self.alloc.active_blocks(chip_id):
            return  # open blocks are not refreshable; retry once closed
        self.stats.refreshes += 1
        with self.tel.tracer.span(
            "refresh", cat="ftl.refresh", chip=chip_id, block=gb
        ):
            events = self._move_pages(self.status.live_pages(gb), "refresh")
            self.stats.refresh_copies += len(events)
            self._block_reads[gb] = 0
            self._finish_victim(chip_id, local_block, events)
        self._ensure_space(chip_id)

    # ------------------------------------------------------------------
    # static wear leveling (another Section-6 flash-management task)
    # ------------------------------------------------------------------
    def _drain_wear_leveling(self) -> None:
        """Re-check wear spread on every chip an erase just touched."""
        due = sorted(self._wear_level_due)
        self._wear_level_due.clear()
        for chip_id in due:
            self._maybe_level_wear(chip_id)

    def _maybe_level_wear(self, chip_id: int) -> None:
        """Migrate the coldest block's live data when wear spreads.

        Classic static wear leveling: dynamic allocation can only even
        out wear among blocks that *circulate*; a block pinned full of
        cold data never rejoins the pool and falls ever further behind.
        When a full block's erase count lags the chip's in-service
        maximum by ``wear_leveling_threshold`` or more, the coldest such
        laggard is evacuated exactly like a GC victim (its stale copies
        run through the variant's sanitization hook) and queued for
        reuse, so the hot write stream starts wearing it.  Anchoring the
        trigger on the *victim's* lag (not just the chip-wide min, which
        a soon-to-circulate free block can pin forever) makes the
        process convergent: once every full block is within the
        threshold of the leader there is nothing left to migrate.
        Migration transiently draws on the free pool for its copies --
        at most one block open mid-move (the stream cursor absorbs the
        rest), plus one spare in case that open lazy-erases into a
        wear-out retirement -- so it defers on a leaner chip until the
        next erase re-marks it due.  Ties break on
        block index; the whole decision is a pure function of table
        state, keeping determinism.
        """
        threshold = self.config.wear_leveling_threshold
        if threshold is None:
            return
        if self.alloc.reserve_blocks(chip_id) < 2:
            return
        chip = self.chips[chip_id]
        base_gb = chip_id * self._blocks_per_chip
        hi: int | None = None
        for local_block in range(self._blocks_per_chip):
            if base_gb + local_block in self._bad_blocks:
                continue  # retired: out of service, not levelable wear
            count = chip.blocks[local_block].erase_count
            if hi is None or count > hi:
                hi = count
        if hi is None:
            return
        actives = set(self.alloc.active_blocks(chip_id))
        best: int | None = None
        best_key: tuple[int, int] | None = None
        for local_block in range(self._blocks_per_chip):
            gb = base_gb + local_block
            if (
                gb in self._bad_blocks
                or gb in self._pending_victims
                or gb in self._condemned
                or local_block in actives
            ):
                continue
            block = chip.blocks[local_block]
            if hi - block.erase_count < threshold:
                continue  # circulating healthily; migration buys nothing
            if not block.is_full or self.status.live_count(gb) == 0:
                continue
            key = (block.erase_count, local_block)
            if best_key is None or key < best_key:
                best_key = key
                best = local_block
        if best is None:
            return  # nothing cold and migratable right now
        gb = base_gb + best
        self.stats.wear_levelings += 1
        with self.tel.tracer.span(
            "wear-level", cat="ftl.wear", chip=chip_id, block=gb
        ):
            events = self._move_pages(self.status.live_pages(gb), "wear-level")
            self.stats.wear_level_copies += len(events)
            self._finish_victim(chip_id, best, events)
        self._ensure_space(chip_id)

    # ------------------------------------------------------------------
    # sanitization hooks (overridden by the evaluated variants)
    # ------------------------------------------------------------------
    def _sanitize_host_batch(self, events: list[InvalidationEvent]) -> None:
        """Called after each host write/trim with its invalidations."""
        # baseline: stale data just sits there until GC (Section 2.2).

    def _finish_victim(
        self,
        chip_id: int,
        local_block: int,
        events: list[InvalidationEvent],
    ) -> None:
        """Called after GC evacuated a victim; default: lazy erase."""
        self._retire_victim(chip_id, local_block)

    def _retire_victim(self, chip_id: int, local_block: int) -> None:
        gb = self.global_block(chip_id, local_block)
        if gb in self._condemned:
            # too many program failures: erase now (sanitizing whatever
            # the evacuation left) and pull the block from service
            # instead of queueing it for reuse.  A failed erase lands in
            # _retire_bad_block, which retires it the scrubbed way.
            if self._erase_block_now(chip_id, local_block):
                self.chips[chip_id].blocks[local_block].mark_retired()
                self.alloc.retire_block(chip_id, local_block)
                self._condemned.discard(gb)
                self._bad_blocks.add(gb)
                self.stats.grown_bad_blocks += 1
            return
        self.chips[chip_id].blocks[local_block].mark_erase_pending()
        self.alloc.retire_victim(chip_id, local_block)
        self._pending_victims.add(gb)

    # ------------------------------------------------------------------
    # inspection helpers
    # ------------------------------------------------------------------
    def mapped_gppa(self, lpa: int) -> int:
        return self.l2p.lookup(lpa)

    def raw_device_dump(self) -> dict[int, object]:
        """Forensic attacker view across all chips (gppa -> payload)."""
        out: dict[int, object] = {}
        for chip_id, chip in enumerate(self.chips):
            for ppn, data in chip.raw_dump().items():
                out[self.make_gppa(chip_id, ppn)] = data
        return out

    def elapsed_us(self) -> float:
        return self.timing.elapsed_us

    # ------------------------------------------------------------------
    # checkpoint support (repro.checkpoint)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """FTL tables and cursors only -- chip arrays, the fault
        injector, the timing model, and the sanitizer are separate
        checkpoint sections (see repro.checkpoint.device)."""
        return {
            "l2p": self.l2p.state_dict(),
            "status": self.status.state_dict(),
            "alloc": self.alloc.state_dict(),
            "pending_victims": set(self._pending_victims),
            "rr_chip": self._rr_chip,
            "write_seq": self._write_seq,
            "logical_time": self._logical_time,
            "block_last_program": list(self._block_last_program),
            "block_reads": list(self._block_reads),
            "bad_blocks": set(self._bad_blocks),
            "condemned": set(self._condemned),
            "block_program_fails": list(self._block_program_fails),
            "wear_level_due": set(self._wear_level_due),
            "stats": self.stats.to_dict(),
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.l2p.load_state_dict(state["l2p"])
        self.status.load_state_dict(state["status"])
        self.alloc.load_state_dict(state["alloc"])
        self._pending_victims = set(state["pending_victims"])
        self._rr_chip = state["rr_chip"]
        self._write_seq = state["write_seq"]
        self._logical_time = state["logical_time"]
        self._block_last_program = list(state["block_last_program"])
        self._block_reads = list(state["block_reads"])
        self._bad_blocks = set(state["bad_blocks"])
        self._condemned = set(state["condemned"])
        self._block_program_fails = list(state["block_program_fails"])
        self._wear_level_due = set(state.get("wear_level_due", ()))
        self.stats = DeviceStats.from_dict(state["stats"])
