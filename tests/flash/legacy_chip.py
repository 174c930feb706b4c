"""Reference model for the differential test: the page-object flash chip.

A verbatim copy of the original ``Page``-list ``Block`` and ``FlashChip``
(one ``Page`` object per physical page, an explicit per-page state),
kept only as the oracle ``test_columnar_oracle.py`` compares the columnar
production classes against.  The read-result, token and statistics types
are shared with production, so results compare with ``==``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.flash import constants
from repro.flash.block import BlockState
from repro.flash.chip import (
    ERASED_DATA,
    FAULT_FAIL,
    FAULT_POWER_LOSS,
    SCRUBBED_DATA,
    TORN_DATA,
    ChipStats,
    ReadResult,
)
from repro.flash.errors import (
    AddressError,
    EraseFailError,
    EraseStateError,
    PowerLossInjected,
    ProgramFailError,
    ProgramOrderError,
    UncorrectableError,
    WearOutError,
)
from repro.flash.geometry import Geometry


class PageState(Enum):
    """Physical condition of a page (not the FTL's logical status)."""

    ERASED = "erased"
    PROGRAMMED = "programmed"


@dataclass
class Page:
    """One physical page: payload plus spare-area metadata.

    Attributes
    ----------
    state:
        Whether the page holds programmed data.
    data:
        Opaque payload written by the host (None when erased).
    spare:
        Spare-area (OOB) metadata dictionary -- the FTL stores the logical
        page address here, exactly like real FTLs do for power-loss
        recovery; VerTrace stores file annotations.
    program_time:
        Simulation time (us) at which the page was programmed.
    """

    state: PageState = PageState.ERASED
    data: Any = None
    spare: dict[str, Any] = field(default_factory=dict)
    program_time: float | None = None

    @property
    def is_erased(self) -> bool:
        return self.state is PageState.ERASED

    def program(self, data: Any, spare: dict[str, Any] | None, now: float) -> None:
        """Transition ERASED -> PROGRAMMED; caller validates ordering."""
        self.state = PageState.PROGRAMMED
        self.data = data
        self.spare = dict(spare or {})
        self.program_time = now

    def erase(self) -> None:
        """Reset to the erased state, destroying payload and spare data."""
        self.state = PageState.ERASED
        self.data = None
        self.spare = {}
        self.program_time = None


#: checkpoint code of each page state: its index here.
PAGE_STATES: tuple[PageState, ...] = (PageState.ERASED, PageState.PROGRAMMED)
_PAGE_CODES = {state: code for code, state in enumerate(PAGE_STATES)}


@dataclass
class Block:
    """One physical block of ``geometry.pages_per_block`` pages."""

    geometry: Geometry
    index: int
    pe_limit: int | None = None
    pages: list[Page] = field(init=False)
    erase_count: int = field(init=False, default=0)
    next_page: int = field(init=False, default=0)
    #: simulation time (us) of the last erase; basis of the open interval.
    last_erase_time: float = field(init=False, default=0.0)
    #: per-wordline count of inhibited program pulses (pLock disturb).
    wl_disturb_pulses: list[int] = field(init=False)
    #: called as ``(index, old_state, new_state)`` on every transition;
    #: the owning chip uses it to maintain its free set incrementally.
    state_listener: Callable[[int, BlockState, BlockState], None] | None = field(
        init=False, default=None, repr=False, compare=False
    )
    _state: BlockState = field(init=False, default=BlockState.FREE, repr=False)

    def __post_init__(self) -> None:
        self.geometry.check_block(self.index)
        self.pages = [Page() for _ in range(self.geometry.pages_per_block)]
        self.wl_disturb_pulses = [0] * self.geometry.wordlines_per_block

    @property
    def state(self) -> BlockState:
        return self._state

    @state.setter
    def state(self, new_state: BlockState) -> None:
        # every transition funnels through here so the owning chip can
        # maintain its free-block set incrementally instead of rescanning
        # all blocks on each allocator refill (see FlashChip.free_blocks)
        old_state = self._state
        self._state = new_state
        listener = self.state_listener
        if listener is not None and old_state is not new_state:
            listener(self.index, old_state, new_state)

    # ------------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        return self.next_page >= self.geometry.pages_per_block

    def page(self, page_offset: int) -> Page:
        return self.pages[page_offset]

    def open_interval_us(self, now: float) -> float:
        """Time this block has spent erased-but-unprogrammed."""
        if self.state is not BlockState.FREE:
            return 0.0
        return max(0.0, now - self.last_erase_time)

    # ------------------------------------------------------------------
    def program(
        self,
        page_offset: int,
        data: Any,
        spare: dict[str, Any] | None,
        now: float,
    ) -> None:
        """Program the next page in sequence.

        Raises
        ------
        ProgramOrderError
            If the target is not the next sequential page or is already
            programmed.
        EraseStateError
            If the block is pending erase.
        """
        state = self._state
        if state is BlockState.ERASE_PENDING:
            raise EraseStateError(
                f"block {self.index} is erase-pending; erase before programming"
            )
        if state is BlockState.RETIRED:
            raise EraseStateError(f"block {self.index} is retired (grown-bad)")
        if page_offset != self.next_page:
            raise ProgramOrderError(
                f"block {self.index}: page {page_offset} out of order "
                f"(next programmable is {self.next_page})"
            )
        page = self.pages[page_offset]
        if page.state is not PageState.ERASED:
            raise ProgramOrderError(
                f"block {self.index} page {page_offset} already programmed"
            )
        page.program(data, spare, now)
        self.next_page += 1
        # only route actual transitions through the state setter; the
        # common mid-block program leaves the state at OPEN and must not
        # pay the setter + listener dispatch on every page
        if self.next_page >= self.geometry.pages_per_block:
            self.state = BlockState.FULL
        elif self._state is not BlockState.OPEN:
            self.state = BlockState.OPEN

    def erase(self, now: float) -> None:
        """Erase the whole block, destroying all page data.

        Raises
        ------
        WearOutError
            If the block would exceed its endurance limit.
        """
        if self.state is BlockState.RETIRED:
            raise EraseStateError(f"block {self.index} is retired (grown-bad)")
        if self.pe_limit is not None and self.erase_count >= self.pe_limit:
            raise WearOutError(
                f"block {self.index} reached its P/E limit of {self.pe_limit}"
            )
        for page in self.pages:
            page.erase()
        self.erase_count += 1
        self.next_page = 0
        self.state = BlockState.FREE
        self.last_erase_time = now
        self.wl_disturb_pulses = [0] * self.geometry.wordlines_per_block

    def mark_erase_pending(self) -> None:
        """Tag the block as a GC victim awaiting lazy erase (Section 5.4)."""
        self.state = BlockState.ERASE_PENDING

    def mark_retired(self) -> None:
        """Pull a grown-bad block from service, permanently.

        The state lives in this (persistent) chip structure, so the
        grown-bad table survives power loss for free -- recovery rebuilds
        the FTL's RAM copy from the block states.
        """
        self.state = BlockState.RETIRED

    def record_wl_disturb(self, wordline: int) -> None:
        """Count one inhibited program pulse on a wordline (pLock)."""
        self.wl_disturb_pulses[wordline] += 1

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Checkpoint payload (see :mod:`repro.checkpoint`).

        Pages are stored as columns, one list per :class:`Page` field,
        with each page state as its :data:`PAGE_STATES` index.
        """
        pages = self.pages
        return {
            "page_state": [_PAGE_CODES[page.state] for page in pages],
            "data": [page.data for page in pages],
            "spare": [dict(page.spare) for page in pages],
            "program_time": [page.program_time for page in pages],
            "erase_count": self.erase_count,
            "next_page": self.next_page,
            "last_erase_time": self.last_erase_time,
            "wl_disturb_pulses": list(self.wl_disturb_pulses),
            "state": self._state,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        columns = zip(
            self.pages,
            state["page_state"],
            state["data"],
            state["spare"],
            state["program_time"],
            strict=True,
        )
        for page, code, data, spare, program_time in columns:
            page.state = PAGE_STATES[code]
            page.data = data
            page.spare = dict(spare)
            page.program_time = program_time
        self.erase_count = state["erase_count"]
        self.next_page = state["next_page"]
        self.last_erase_time = state["last_erase_time"]
        self.wl_disturb_pulses = list(state["wl_disturb_pulses"])
        # bypass the setter: the owning chip rebuilds its free set in one
        # pass after every block is loaded, so no listener churn here.
        self._state = state["state"]


@dataclass
class FlashChip:
    """One NAND die: an array of blocks plus the command interface."""

    geometry: Geometry
    pe_limit: int | None = None
    t_read_us: float = constants.T_READ_US
    t_prog_us: float = constants.T_PROG_US
    t_erase_us: float = constants.T_BERS_US
    #: optional fault hook (duck-typed :class:`repro.faults.FaultInjector`):
    #: consulted once per chip command; may fail the op or cut power.
    fault_hook: Any = None
    #: optional wear gate (duck-typed :class:`repro.flash.wear.
    #: WearReadGate`): consulted on every data sense; fails the read when
    #: the owning block's accumulated P/E wear pushes the expected RBER
    #: past the ECC limit.  None (the default) keeps the historical
    #: fresh-forever sense path bit-for-bit.
    wear_gate: Any = None
    blocks: list[Block] = field(init=False)
    stats: ChipStats = field(init=False)

    def __post_init__(self) -> None:
        self.blocks = [
            Block(self.geometry, i, pe_limit=self.pe_limit)
            for i in range(self.geometry.blocks_per_chip)
        ]
        self.stats = ChipStats()
        # incrementally maintained FREE-block set: every Block state
        # transition notifies _track_block_state, so free_blocks() never
        # rescans the whole array (it used to be O(blocks) per call)
        self._free_blocks = set(range(self.geometry.blocks_per_chip))
        for block in self.blocks:
            block.state_listener = self._track_block_state

    def _track_block_state(
        self, index: int, old_state: BlockState, new_state: BlockState
    ) -> None:
        if new_state is BlockState.FREE:
            self._free_blocks.add(index)
        elif old_state is BlockState.FREE:
            self._free_blocks.discard(index)

    # ------------------------------------------------------------------
    def block(self, block_index: int) -> Block:
        self.geometry.check_block(block_index)
        return self.blocks[block_index]

    def _locate(self, ppn: int) -> tuple[Block, int]:
        # split_ppn, inlined: one _locate per read/program makes the
        # extra call layer measurable
        geometry = self.geometry
        if not 0 <= ppn < geometry.pages_per_chip:
            geometry.check_ppn(ppn)
        block_index, page_offset = divmod(ppn, geometry.pages_per_block)
        return self.blocks[block_index], page_offset

    # ------------------------------------------------------------------
    # fault-hook plumbing (repro.faults)
    # ------------------------------------------------------------------
    def _begin_op(self, op: str) -> bool:
        """Consult the hook; returns True when the op must status-fail.

        A power-loss directive raises here -- before the command touches
        any cell.  ``program_page`` does not use this helper because an
        interrupted program must still tear the target page.
        """
        hook = self.fault_hook
        if hook is None:
            return False
        directive = hook.on_op(op)
        if directive == FAULT_POWER_LOSS:
            raise PowerLossInjected(f"power loss at {op} boundary")
        return directive == FAULT_FAIL

    # ------------------------------------------------------------------
    def read_page(self, ppn: int, now: float = 0.0) -> ReadResult:
        """Standard page read; subclasses overlay access control."""
        fail = False if self.fault_hook is None else self._begin_op("read")
        return self._sense_page(ppn, fail)

    def _sense_page(self, ppn: int, fail: bool) -> ReadResult:
        """Shared sensing path (fault decision already taken)."""
        # _locate and Block.page, inlined: one sense per flash read
        geometry = self.geometry
        if not 0 <= ppn < geometry.pages_per_chip:
            geometry.check_ppn(ppn)
        block_index, page_offset = divmod(ppn, geometry.pages_per_block)
        page = self.blocks[block_index].pages[page_offset]
        stats = self.stats
        stats.reads += 1
        stats.busy_time_us += self.t_read_us
        if fail:
            raise UncorrectableError(
                f"ppn {ppn}: injected transient read failure",
                rber=1.0,
                limit=constants.ECC_LIMIT_RBER,
            )
        if page.is_erased:
            return ReadResult(ERASED_DATA, {}, self.t_read_us)
        if page.spare.get("torn"):
            raise UncorrectableError(
                f"ppn {ppn}: torn page (program was interrupted)",
                rber=1.0,
                limit=constants.ECC_LIMIT_RBER,
            )
        if self.wear_gate is not None:
            self.wear_gate.check_readable(self.blocks[block_index], ppn)
        return ReadResult(page.data, dict(page.spare), self.t_read_us)

    def program_page(
        self,
        ppn: int,
        data: Any,
        spare: dict[str, Any] | None = None,
        now: float = 0.0,
    ) -> float:
        """Program one page; returns the operation latency (us)."""
        hook = self.fault_hook
        directive = "" if hook is None else hook.on_op("program")
        block, page_offset = self._locate(ppn)
        if directive:
            # the pulse train stopped mid-flight (status-fail or power
            # cut): the page is consumed with cells between distributions
            block.program(page_offset, TORN_DATA, {"torn": True}, now)
            self.stats.programs += 1
            self.stats.busy_time_us += self.t_prog_us
            if directive == FAULT_POWER_LOSS:
                raise PowerLossInjected(f"power loss during program of ppn {ppn}")
            raise ProgramFailError(f"ppn {ppn}: program status-fail")
        block.program(page_offset, data, spare, now)
        self.stats.programs += 1
        self.stats.busy_time_us += self.t_prog_us
        return self.t_prog_us

    def erase_block(self, block_index: int, now: float = 0.0) -> float:
        """Erase one block; returns the operation latency (us)."""
        if self._begin_op("erase"):
            raise EraseFailError(f"block {block_index}: erase status-fail")
        block = self.block(block_index)
        block.erase(now)
        self.stats.erases += 1
        self.stats.busy_time_us += self.t_erase_us
        return self.t_erase_us

    def scrub_wordline(
        self, block_index: int, wordline: int, latency_us: float = 100.0
    ) -> float:
        """Destroy every page of a wordline with a one-shot scrub pulse.

        Section 4: scrubbing merges the Vth states of all cells on the
        wordline, so every page it stores becomes garbage.  The pages stay
        *programmed* (their cells are high-Vth, not erased), so they cannot
        be reused until the block is erased.  The caller must have moved
        any live sibling pages elsewhere first.
        """
        self._begin_op("scrub")
        block = self.block(block_index)
        if not 0 <= wordline < self.geometry.wordlines_per_block:
            raise AddressError(f"wordline {wordline} out of range")
        base = wordline * self.geometry.pages_per_wordline
        for offset in range(base, base + self.geometry.pages_per_wordline):
            page = block.pages[offset]
            if not page.is_erased:
                page.data = SCRUBBED_DATA
                page.spare = {}
        self.stats.busy_time_us += latency_us
        return latency_us

    # ------------------------------------------------------------------
    def next_programmable_page(self, block_index: int) -> int | None:
        """Offset of the next in-order programmable page, if any."""
        block = self.block(block_index)
        if block.state is BlockState.ERASE_PENDING or block.is_full:
            return None
        return block.next_page

    def free_blocks(self) -> list[int]:
        """Indices of blocks that are erased and empty (ascending).

        Served from the incrementally maintained set; sorting keeps the
        historical index-order contract so allocator refills and
        recovery layouts stay byte-identical to the scan they replaced.
        """
        return sorted(self._free_blocks)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Checkpoint payload (see :mod:`repro.checkpoint`)."""
        return {
            "blocks": [block.state_dict() for block in self.blocks],
            "stats": self.stats.state_dict(),
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore in place -- Block objects are mutated, not replaced,
        so their ``state_listener`` wiring survives; the free set is
        rebuilt in one pass afterwards."""
        for block, payload in zip(self.blocks, state["blocks"]):
            block.load_state_dict(payload)
        self.stats.load_state_dict(state["stats"])
        self._free_blocks = {
            i
            for i, block in enumerate(self.blocks)
            if block.state is BlockState.FREE
        }

    def raw_dump(self) -> dict[int, Any]:
        """Forensic view: payload of every programmed page, keyed by PPN.

        This is what the Section-5.1 attacker obtains by de-soldering the
        chip and replaying read commands on a *non*-Evanesco part: all
        programmed data, regardless of the FTL's logical page status.
        Evanesco chips override this to honour the AP flags, because the
        blocking logic lives inside the chip, below every interface.
        """
        out: dict[int, Any] = {}
        for block in self.blocks:
            for offset, page in enumerate(block.pages):
                if not page.is_erased:
                    ppn = self.geometry.ppn(block.index, offset)
                    out[ppn] = page.data
        return out
