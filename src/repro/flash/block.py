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

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any

from repro.flash.errors import (
    EraseStateError,
    ProgramOrderError,
    WearOutError,
)
from repro.flash.geometry import Geometry


class BlockState(Enum):
    """Lifecycle of a block as the FTL sees it."""

    FREE = "free"          # erased, no page programmed yet
    OPEN = "open"          # partially programmed (the "active" block)
    FULL = "full"          # every page programmed
    ERASE_PENDING = "erase_pending"  # GC victim awaiting its lazy erase
    RETIRED = "retired"    # grown-bad: permanently out of service


#: checkpoint codes of the per-page state column: erased, programmed.
PAGE_ERASED, PAGE_PROGRAMMED = 0, 1

#: spare area of every erased or scrubbed page (and of a page programmed
#: without one): one shared, read-only empty mapping.
EMPTY_SPARE: Mapping[str, Any] = MappingProxyType({})


@dataclass
class Block:
    """One physical block of ``geometry.pages_per_block`` pages.

    Pages are three columns indexed by in-block offset: ``data`` (the
    opaque payload written by the host, None when erased), ``spare``
    (spare-area metadata -- the FTL stores the logical page address
    there, exactly like real FTLs do for power-loss recovery; VerTrace
    stores file annotations) and ``program_time`` (simulation time in
    us, None when erased).  Pages program strictly in order, so a page
    is programmed exactly when its offset is below ``next_page``; no
    per-page state is stored.
    """

    geometry: Geometry
    index: int
    pe_limit: int | None = None
    data: list[Any] = field(init=False)
    spare: list[Mapping[str, Any]] = field(init=False)
    program_time: list[float | None] = field(init=False)
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
        self._reset_pages()
        self.wl_disturb_pulses = [0] * self.geometry.wordlines_per_block

    def _reset_pages(self) -> None:
        n = self.geometry.pages_per_block
        self.data = [None] * n
        self.spare = [EMPTY_SPARE] * n
        self.program_time = [None] * n

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
        spare: Mapping[str, Any] | None,
        now: float,
    ) -> None:
        """Program the next page in sequence.

        ``spare`` is stored as given, not copied: callers hand over a
        fresh mapping (a read returns a copy, so a page move stores the
        one copy its read made).

        Raises
        ------
        ProgramOrderError
            If the target is not the next sequential page (every page
            below it is already programmed).
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
        self.data[page_offset] = data
        self.spare[page_offset] = EMPTY_SPARE if spare is None else spare
        self.program_time[page_offset] = now
        self.next_page = page_offset + 1
        # only route actual transitions through the state setter; the
        # common mid-block program leaves the state at OPEN and must not
        # pay the setter + listener dispatch on every page
        if self.next_page >= self.geometry.pages_per_block:
            self.state = BlockState.FULL
        elif state is not BlockState.OPEN:
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
        self._reset_pages()
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
    def _page_states(self, next_page: int) -> list[int]:
        n = self.geometry.pages_per_block
        return [PAGE_PROGRAMMED] * next_page + [PAGE_ERASED] * (n - next_page)

    def state_dict(self) -> dict[str, Any]:
        """Checkpoint payload (see :mod:`repro.checkpoint`).

        Pages are stored as their columns plus a ``page_state`` column
        (:data:`PAGE_ERASED` / :data:`PAGE_PROGRAMMED`), which
        ``next_page`` determines.
        """
        return {
            "page_state": self._page_states(self.next_page),
            "data": list(self.data),
            "spare": [dict(spare) for spare in self.spare],
            "program_time": list(self.program_time),
            "erase_count": self.erase_count,
            "next_page": self.next_page,
            "last_erase_time": self.last_erase_time,
            "wl_disturb_pulses": list(self.wl_disturb_pulses),
            "state": self._state,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        next_page = state["next_page"]
        if state["page_state"] != self._page_states(next_page):
            raise ValueError(
                f"block {self.index}: page states disagree with "
                f"next_page {next_page} (pages program in order)"
            )
        n = self.geometry.pages_per_block
        columns = (state["data"], state["spare"], state["program_time"])
        if any(len(column) != n for column in columns):
            raise ValueError(f"block {self.index}: page columns are not {n} long")
        self.data = list(state["data"])
        self.spare = [dict(spare) for spare in state["spare"]]
        self.program_time = list(state["program_time"])
        self.erase_count = state["erase_count"]
        self.next_page = next_page
        self.last_erase_time = state["last_erase_time"]
        self.wl_disturb_pulses = list(state["wl_disturb_pulses"])
        # bypass the setter: the owning chip rebuilds its free set in one
        # pass after every block is loaded, so no listener churn here.
        self._state = state["state"]
