"""Flash-operation capture: how the event engine drives the real FTLs.

The FTL variants execute *functionally* the instant a request is
submitted (mapping updates, GC, lock manager, fault handling) and report
every primitive flash operation to their :class:`TimingModel`.  The
engine exploits that seam: it swaps in :class:`RecordingTiming`, a
``TimingModel`` subclass that keeps the open-loop occupancy accounting
bit-identical (the cross-check against the open-loop model depends on
it) while *also* capturing the per-request operation stream.  Each
captured :class:`FlashOp` is then re-enacted as queued service on the
simulated chip/channel resources, so queueing delay -- the thing the
open-loop model cannot express -- falls out of the event schedule.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from repro.ssd.config import SSDConfig
from repro.ssd.timing import TimingModel


class OpKind(Enum):
    """Primitive flash operations the FTLs schedule."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"
    PLOCK = "plock"
    BLOCK_LOCK = "block_lock"
    SCRUB = "scrub"


#: operations that are sanitization lock pulses (deferral candidates).
LOCK_KINDS = frozenset({OpKind.PLOCK, OpKind.BLOCK_LOCK})

#: cell operations a suspension-capable chip can pause for a read
#: (erase suspend / program suspend, standard on modern NAND).
SUSPENDABLE_KINDS = frozenset({OpKind.ERASE, OpKind.PROGRAM})

#: operations that are sanitization by nature, wherever they appear --
#: a lock pulse or scrub pulse has no other purpose.
SANITIZE_KINDS = frozenset({OpKind.PLOCK, OpKind.BLOCK_LOCK, OpKind.SCRUB})


class FlashOp(NamedTuple):
    """One captured primitive operation on one chip.

    A ``NamedTuple`` rather than a dataclass: one is constructed per
    captured flash op (hundreds of thousands per benchmark run) and
    tuple construction is several times cheaper than a frozen-dataclass
    ``__init__``.

    ``sanitize`` attributes the op to data sanitization: always set for
    :data:`SANITIZE_KINDS`, and set for reads/programs/erases captured
    inside the FTL's :meth:`~repro.ssd.timing.TimingModel.sanitize_region`
    (relocation copies, padding programs, sanitize erases).  Plain host
    I/O and capacity-reclamation GC stay untagged.
    """

    kind: OpKind
    chip_id: int
    sanitize: bool = False


class RecordingTiming(TimingModel):
    """A :class:`TimingModel` that also captures per-request op streams.

    Accounting semantics are inherited unchanged -- ``elapsed_us`` of a
    recorded run is exactly what the plain open-loop model would report
    for the same request order, which is what makes the open-loop vs
    closed-loop agreement contract testable on a single run.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self._ops: list[FlashOp] | None = None
        self._cell_us = {
            OpKind.READ: self.t_read_us,
            OpKind.PROGRAM: self.t_prog_us,
            OpKind.ERASE: self.t_erase_us,
            OpKind.PLOCK: self.t_plock_us,
            OpKind.BLOCK_LOCK: self.t_block_lock_us,
            OpKind.SCRUB: self.t_scrub_us,
        }

    @classmethod
    def from_config(cls, config: SSDConfig) -> "RecordingTiming":
        return cls(
            n_channels=config.n_channels,
            chips_per_channel=config.chips_per_channel,
            t_read_us=config.t_read_us,
            t_prog_us=config.t_prog_us,
            t_erase_us=config.t_erase_us,
            t_plock_us=config.t_plock_us,
            t_block_lock_us=config.t_block_lock_us,
            t_scrub_us=config.t_scrub_us,
            t_xfer_us=config.t_xfer_us,
        )

    # ------------------------------------------------------------------
    def begin_capture(self) -> None:
        if self._ops is not None:
            raise RuntimeError("capture already in progress")
        self._ops = []

    def end_capture(self) -> list[FlashOp]:
        if self._ops is None:
            raise RuntimeError("no capture in progress")
        ops, self._ops = self._ops, None
        return ops

    def _emit(self, kind: OpKind, chip_id: int) -> None:
        if self._ops is not None:
            self._ops.append(
                tuple.__new__(
                    FlashOp,
                    (
                        kind,
                        chip_id,
                        kind in SANITIZE_KINDS or self._sanitize_depth > 0,
                    ),
                )
            )

    # ------------------------------------------------------------------
    # The overrides call the base method explicitly rather than through
    # super() + _emit: read/program run once per data page moved and
    # plock once per stale secured page, and the explicit call keeps the
    # capture append inline.  Every site builds its FlashOp with
    # tuple.__new__, which skips the NamedTuple's generated __new__ frame.
    def read(self, chip_id: int) -> float:
        end = TimingModel.read(self, chip_id)
        ops = self._ops
        if ops is not None:
            ops.append(
                tuple.__new__(
                    FlashOp, (OpKind.READ, chip_id, self._sanitize_depth > 0)
                )
            )
        return end

    def program(self, chip_id: int) -> float:
        end = TimingModel.program(self, chip_id)
        ops = self._ops
        if ops is not None:
            ops.append(
                tuple.__new__(
                    FlashOp, (OpKind.PROGRAM, chip_id, self._sanitize_depth > 0)
                )
            )
        return end

    def erase(self, chip_id: int) -> float:
        end = super().erase(chip_id)
        self._emit(OpKind.ERASE, chip_id)
        return end

    def plock(self, chip_id: int) -> float:
        end = TimingModel.plock(self, chip_id)
        ops = self._ops
        if ops is not None:  # PLOCK is in SANITIZE_KINDS: always tagged
            ops.append(tuple.__new__(FlashOp, (OpKind.PLOCK, chip_id, True)))
        return end

    def block_lock(self, chip_id: int) -> float:
        end = super().block_lock(chip_id)
        self._emit(OpKind.BLOCK_LOCK, chip_id)
        return end

    def scrub(self, chip_id: int) -> float:
        end = super().scrub(chip_id)
        self._emit(OpKind.SCRUB, chip_id)
        return end

    # ------------------------------------------------------------------
    def cell_duration_us(self, kind: OpKind) -> float:
        """Chip occupancy of one operation (the cell-op stage)."""
        return self._cell_us[kind]
