"""Behavioural model of one NAND flash chip.

The chip exposes the standard command set (read / program / erase) and
models what each command does to the cells, nothing else: what a command
costs is :class:`repro.ftl.timing.TimingModel`'s to decide, and how many
ran is counted once, in :class:`repro.ftl.stats.DeviceStats`.  The
Evanesco-enhanced chip in :mod:`repro.core.evanesco_chip` subclasses this
to add `pLock` / `bLock` and access-permission checks on the read path.

Reads return a :class:`ReadResult` carrying the payload and spare
metadata; a read of an erased page returns the all-ones pattern token
``ERASED_DATA`` (erased cells read as '1').
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.flash import constants
from repro.flash.block import EMPTY_SPARE, Block, BlockState
from repro.flash.errors import (
    AddressError,
    EraseFailError,
    PowerLossInjected,
    ProgramFailError,
    UncorrectableError,
)
from repro.flash.geometry import Geometry

#: Token returned when reading an erased page (all cells read '1').
ERASED_DATA = "<erased:all-ones>"

#: Token returned when reading a locked page/block (chip outputs zeros).
ZERO_DATA = "<locked:all-zeros>"

#: Token left behind by a scrub pulse (Vth states merged, data destroyed).
SCRUBBED_DATA = "<scrubbed:destroyed>"

#: Token left in a page whose program pulse train was interrupted
#: (injected program failure or power loss mid-program); reads back
#: uncorrectable until the block is erased or the wordline scrubbed.
TORN_DATA = "<torn:mid-distribution>"

#: Fault-hook directives (see :mod:`repro.faults`): the hook's ``on_op``
#: returns one of these (or ``""`` for "proceed normally").
FAULT_FAIL = "fail"
FAULT_POWER_LOSS = "power-loss"


class ReadResult(NamedTuple):
    """Outcome of a page read.

    A ``NamedTuple``: one is built per flash read and tuple construction
    is several times cheaper than a frozen-dataclass ``__init__``.
    """

    data: Any
    spare: dict[str, Any]
    #: whether the chip's AP logic suppressed the data (Evanesco chips).
    blocked: bool = False


@dataclass
class FlashChip:
    """One NAND die: an array of blocks plus the command interface."""

    geometry: Geometry
    pe_limit: int | None = None
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

    def __post_init__(self) -> None:
        self.blocks = [
            Block(self.geometry, i, pe_limit=self.pe_limit)
            for i in range(self.geometry.blocks_per_chip)
        ]
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
        # split_ppn, inlined: once per flash read
        geometry = self.geometry
        if not 0 <= ppn < geometry.pages_per_chip:
            geometry.check_ppn(ppn)
        block_index, page_offset = divmod(ppn, geometry.pages_per_block)
        return self._sense_page(self.blocks[block_index], page_offset, ppn, fail)

    def _sense_page(
        self, block: Block, page_offset: int, ppn: int, fail: bool
    ) -> ReadResult:
        """Shared sensing path (address split and fault decision taken).

        The spare area comes back as a fresh copy, so a caller may keep
        or mutate it without touching the stored page.
        """
        if fail:
            raise UncorrectableError(
                f"ppn {ppn}: injected transient read failure",
                rber=1.0,
                limit=constants.ECC_LIMIT_RBER,
            )
        # tuple.__new__ skips the NamedTuple's generated __new__, a
        # Python frame that costs about as much as the tuple itself
        if page_offset >= block.next_page:
            return tuple.__new__(
                ReadResult, (ERASED_DATA, {}, False)
            )
        spare = block.spare[page_offset]
        if spare.get("torn"):
            raise UncorrectableError(
                f"ppn {ppn}: torn page (program was interrupted)",
                rber=1.0,
                limit=constants.ECC_LIMIT_RBER,
            )
        if self.wear_gate is not None:
            self.wear_gate.check_readable(block, ppn)
        return tuple.__new__(
            ReadResult,
            (block.data[page_offset], dict(spare), False),
        )

    def program_page(
        self,
        ppn: int,
        data: Any,
        spare: dict[str, Any] | None = None,
        now: float = 0.0,
    ) -> None:
        """Program one page.

        ``spare`` is stored as given, not copied (see :meth:`Block.program`).
        """
        hook = self.fault_hook
        directive = "" if hook is None else hook.on_op("program")
        # split_ppn, inlined: once per flash program
        geometry = self.geometry
        if not 0 <= ppn < geometry.pages_per_chip:
            geometry.check_ppn(ppn)
        block_index, page_offset = divmod(ppn, geometry.pages_per_block)
        if directive:
            # the pulse train stopped mid-flight (status-fail or power
            # cut): the page is consumed with cells between distributions
            data, spare = TORN_DATA, {"torn": True}
        self.blocks[block_index].program(page_offset, data, spare, now)
        if directive:
            if directive == FAULT_POWER_LOSS:
                raise PowerLossInjected(f"power loss during program of ppn {ppn}")
            raise ProgramFailError(f"ppn {ppn}: program status-fail")

    def erase_block(self, block_index: int, now: float = 0.0) -> None:
        """Erase one block."""
        if self._begin_op("erase"):
            raise EraseFailError(f"block {block_index}: erase status-fail")
        self.block(block_index).erase(now)

    def scrub_wordline(self, block_index: int, wordline: int) -> None:
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
        end = min(base + self.geometry.pages_per_wordline, block.next_page)
        for offset in range(base, end):
            block.data[offset] = SCRUBBED_DATA
            block.spare[offset] = EMPTY_SPARE

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
        return {"blocks": [block.state_dict() for block in self.blocks]}

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore in place -- Block objects are mutated, not replaced,
        so their ``state_listener`` wiring survives; the free set is
        rebuilt in one pass afterwards."""
        for block, payload in zip(self.blocks, state["blocks"]):
            block.load_state_dict(payload)
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
        pages_per_block = self.geometry.pages_per_block
        for block in self.blocks:
            base = block.index * pages_per_block
            for offset in range(block.next_page):
                out[base + offset] = block.data[offset]
        return out
