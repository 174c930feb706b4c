"""The Evanesco-enhanced flash chip -- Section 5.2.

Extends the behavioural :class:`~repro.flash.chip.FlashChip` with the two
new flash commands and the on-chip access-control read path:

* ``plock(ppn)`` programs the page's pAP flag cells (one-shot, SBPI);
* ``block_lock(pbn)`` programs the block's SSL cells above the read pass
  margin;
* every ``read_page`` first checks the bAP flag, then the pAP flag, and
  returns all-zero data when either is disabled (Figure 7's check order);
* ``erase_block`` resets both flag kinds -- the only way to unlock;
* ``raw_dump`` (the forensic attacker's view) honours the same checks,
  because the blocking logic lives *inside* the chip, below every
  interface the Section 5.1 attacker can use.

Simulation time is microseconds; lock retention physics works in days, so
reads convert via :data:`US_PER_DAY`.  At system-evaluation timescales the
conversion makes retention effects negligible, exactly as on real
hardware; the chip-level studies exercise the day-scale behaviour
directly through :mod:`repro.core.design_space`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ap_flags import PageApArray
from repro.core.flag_cells import FlagCellModel, PulseSettings, default_plock_pulse
from repro.core.ssl_lock import BlockApFlag, SslLockModel, default_block_pulse
from repro.flash.chip import FlashChip, ReadResult, ZERO_DATA
from repro.flash.errors import LockedBlockError, LockedPageError

US_PER_DAY = 86_400.0 * 1e6


@dataclass
class EvanescoChip(FlashChip):
    """Flash chip with pLock/bLock and AP-gated reads."""

    flag_model: FlagCellModel = field(default_factory=FlagCellModel)
    plock_pulse: PulseSettings = field(default_factory=default_plock_pulse)
    ssl_model: SslLockModel = field(default_factory=SslLockModel)
    block_pulse: PulseSettings = field(default_factory=default_block_pulse)
    seed: int = 0
    _pap: list[PageApArray] = field(init=False)
    _bap: list[BlockApFlag] = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._pap = [
            PageApArray(
                pages_per_block=self.geometry.pages_per_block,
                model=self.flag_model,
                pulse=self.plock_pulse,
                seed=self.seed * 100_003 + b,
            )
            for b in range(self.geometry.blocks_per_chip)
        ]
        self._bap = [
            BlockApFlag(model=self.ssl_model, pulse=self.block_pulse)
            for _ in range(self.geometry.blocks_per_chip)
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _day(now_us: float) -> float:
        return now_us / US_PER_DAY

    def plock(self, ppn: int, now: float = 0.0) -> None:
        """Lock one page: program its pAP flag cells.

        The pulse also counts as one inhibited-program disturb event on
        the page's wordline (the Figure 9(b) reliability coupling).

        An injected lock failure models flag-cell majority loss: the
        pulse is issued (the disturb happens) but no flag cell
        reaches the programmed state, so the k=9 majority circuit still
        reads *enabled*.  Callers verify via :meth:`page_locked`; the
        pulse is re-appliable, so retrying re-programs missed cells.
        """
        failed = False if self.fault_hook is None else self._begin_op("plock")
        # split_ppn and Block.record_wl_disturb, inlined: once per pLock
        geometry = self.geometry
        if not 0 <= ppn < geometry.pages_per_chip:
            geometry.check_ppn(ppn)
        block_index, page_offset = divmod(ppn, geometry.pages_per_block)
        if not failed:
            self._pap[block_index].lock(page_offset, now / US_PER_DAY)
        wordline = page_offset // geometry.pages_per_wordline
        self.blocks[block_index].wl_disturb_pulses[wordline] += 1

    def block_lock(self, block_index: int, now: float = 0.0) -> None:
        """Lock a whole block: program its SSL cells.

        Injected failures mirror :meth:`plock`: the pulse is issued but
        leaves the SSL cells below the disable threshold, so callers
        must verify with :meth:`block_locked`.
        """
        failed = self._begin_op("block_lock")
        self.geometry.check_block(block_index)
        if not failed:
            self._bap[block_index].lock(day=self._day(now))

    # ------------------------------------------------------------------
    def page_locked(self, ppn: int, now: float = 0.0) -> bool:
        """Whether the chip would suppress a read of ``ppn`` right now."""
        block_index, page_offset = self.geometry.split_ppn(ppn)
        day = now / US_PER_DAY
        bap = self._bap[block_index]
        if bap.lock_day is not None and bap.is_disabled(day):
            return True
        return self._pap[block_index].is_disabled(page_offset, day)

    def block_locked(self, block_index: int, now: float = 0.0) -> bool:
        self.geometry.check_block(block_index)
        return self._bap[block_index].is_disabled(self._day(now))

    def read_page(
        self, ppn: int, now: float = 0.0, strict: bool = False
    ) -> ReadResult:
        """AP-gated read (Figure 7): bAP checked first, then pAP.

        A locked target returns all-zero data with ``blocked=True``; with
        ``strict=True`` the locked read raises instead, which tests and
        auditors use to assert enforcement.

        The fault boundary is consulted exactly once per read, here: a
        blocked read deterministically outputs zeros (the AP check gates
        sensing), so an injected transient failure only applies when the
        data path is actually sensed.
        """
        fail = False if self.fault_hook is None else self._begin_op("read")
        block_index, page_offset = self.geometry.split_ppn(ppn)
        day = self._day(now)
        if self._bap[block_index].is_disabled(day):
            if strict:
                raise LockedBlockError(f"block {block_index} is bLocked")
            # tuple.__new__: see FlashChip._sense_page
            return tuple.__new__(ReadResult, (ZERO_DATA, {}, True))
        if self._pap[block_index].is_disabled(page_offset, day):
            if strict:
                raise LockedPageError(f"ppn {ppn} is pLocked")
            return tuple.__new__(ReadResult, (ZERO_DATA, {}, True))
        return self._sense_page(self.blocks[block_index], page_offset, ppn, fail)

    def erase_block(self, block_index: int, now: float = 0.0) -> None:
        """Erase resets both pAP and bAP flags (the only unlock path)."""
        super().erase_block(block_index, now)
        self._pap[block_index].erase()
        self._bap[block_index].erase()

    # ------------------------------------------------------------------
    def raw_dump(self, now: float = 0.0) -> dict[int, object]:
        """Forensic view honouring the on-chip AP logic.

        Locked pages are *absent* from the dump: the attacker's reads of
        them return zeros no matter which interface is used.
        """
        out: dict[int, object] = {}
        day = self._day(now)
        pages_per_block = self.geometry.pages_per_block
        for block in self.blocks:
            if self._bap[block.index].is_disabled(day):
                continue
            pap = self._pap[block.index]
            base = block.index * pages_per_block
            for offset in range(block.next_page):
                if not pap.is_disabled(offset, day):
                    out[base + offset] = block.data[offset]
        return out

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """Base chip state plus the pAP/bAP flag arrays."""
        state = super().state_dict()
        state["pap"] = [pap.state_dict() for pap in self._pap]
        state["bap"] = [bap.state_dict() for bap in self._bap]
        return state

    def load_state_dict(self, state: dict[str, object]) -> None:
        super().load_state_dict(state)
        for pap, payload in zip(self._pap, state["pap"]):
            pap.load_state_dict(payload)
        for bap, payload in zip(self._bap, state["bap"]):
            bap.load_state_dict(payload)
