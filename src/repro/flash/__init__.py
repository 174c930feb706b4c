"""NAND flash substrate: geometry, cell physics, and chip state machines.

Public surface of the substrate the Evanesco reproduction is built on:

* :class:`~repro.flash.geometry.Geometry` / :class:`~repro.flash.geometry.CellType`
  -- chip layout and address arithmetic;
* :class:`~repro.flash.chip.FlashChip` -- behavioural chip with the
  standard read/program/erase command set and timing;
* :class:`~repro.flash.vth.VthModel` -- calibrated threshold-voltage
  distribution engine backing every chip-level experiment;
* :class:`~repro.flash.ecc.EccModel` -- ECC correction-limit model;
* :mod:`~repro.flash.osr` / :mod:`~repro.flash.scrub` -- the
  reprogram-based sanitization baselines of Section 4.
"""

from repro.flash.chip import ERASED_DATA, ZERO_DATA, ChipStats, FlashChip, ReadResult
from repro.flash.block import Block, BlockState
from repro.flash.ecc import EccModel, default_ecc
from repro.flash.encoding import Encoding, encoding_for
from repro.flash.errors import (
    AddressError,
    EraseStateError,
    FlashError,
    LockedBlockError,
    LockedPageError,
    ProgramOrderError,
    UncorrectableError,
    WearOutError,
)
from repro.flash.geometry import CellType, Geometry, PageRole, small_geometry
from repro.flash.vth import StressState, VthModel, default_params, model_for

__all__ = [
    "AddressError",
    "Block",
    "BlockState",
    "CellType",
    "ChipStats",
    "EccModel",
    "Encoding",
    "ERASED_DATA",
    "EraseStateError",
    "FlashChip",
    "FlashError",
    "Geometry",
    "LockedBlockError",
    "LockedPageError",
    "PageRole",
    "ProgramOrderError",
    "ReadResult",
    "StressState",
    "UncorrectableError",
    "VthModel",
    "WearOutError",
    "ZERO_DATA",
    "default_ecc",
    "default_params",
    "encoding_for",
    "model_for",
    "small_geometry",
]
