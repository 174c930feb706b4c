"""Behavioural model of one flash block.

Enforces the NAND rules the paper's design leans on:

* erase-before-program (a page can only be programmed once per erase);
* sequential page programming within a block (3D NAND programs wordlines
  in order to bound interference);
* erase works on the whole block and resets every page;
* per-block program/erase cycle counting against the endurance limit;
* open-interval tracking (Section 5.4): the block records when it was
  erased so callers can measure how long it stayed open before the first
  program.

The Evanesco lock state is *not* stored here -- it lives in the
:mod:`repro.core` structures that model the spare-area flag cells and the
SSL, and the Evanesco chip consults those on every read.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.flash.errors import (
    EraseStateError,
    ProgramOrderError,
    WearOutError,
)
from repro.flash.geometry import Geometry
from repro.flash.page import Page, PageState


class BlockState(Enum):
    """Lifecycle of a block as the FTL sees it."""

    FREE = "free"          # erased, no page programmed yet
    OPEN = "open"          # partially programmed (the "active" block)
    FULL = "full"          # every page programmed
    ERASE_PENDING = "erase_pending"  # GC victim awaiting its lazy erase
    RETIRED = "retired"    # grown-bad: permanently out of service


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
