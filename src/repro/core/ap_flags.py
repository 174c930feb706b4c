"""Per-block pAP flag arrays with k-modular redundancy -- Section 5.3.

Each page of a block owns one pAP flag implemented as ``k`` spare-area
flash cells (k = 9 in the paper's final design) read through a majority
circuit: the flag reads *disabled* while at least ``need = k // 2 + 1``
of its cells read programmed.  There is no unlock command -- only a block
erase resets the cells to the enabled state.

Physical fidelity: when a flag is locked we sample, from the calibrated
:class:`~repro.core.flag_cells.FlagCellModel`,

* how many of the ``k`` cells the one-shot pulse actually programmed, and
* a per-cell uniform *flip threshold* ``u``: the cell reads enabled again
  once ``retention_flip_prob(elapsed days) >= u``.  The flip probability
  rises with time, so repeated queries are deterministic and a flipped
  cell stays flipped.

**Order-statistic storage.**  With ``p`` programmed cells whose thresholds
sorted ascending are ``u_(0) <= ... <= u_(p-1)``, a query at flip
probability ``q`` sees ``#{u_i <= q}`` flipped cells, so the majority
reads disabled iff at most ``p - need`` cells flipped, i.e. iff
``p >= need`` and ``q < u_(p - need)`` (:func:`majority_disabled`).  Since
``p <= k``, that index is at most ``k - need < need``: only the ``need``
smallest thresholds can ever decide a query.  A re-lock adds cells and
thresholds, and the ``need`` smallest of the union are the ``need``
smallest of (old ``need`` smallest + new draws), so keeping just those is
exact under re-locks too.  Each array therefore stores, per locked page,
its lock day, its programmed-cell count and its ``need`` smallest
thresholds, in flat per-page lists allocated on the block's first lock
and dropped on erase.

The RNG draws are ``binomial(k or missed, success)`` then ``random(n)``
per lock, in that order, so every lock outcome and RNG state matches the
per-cell-array representation the order statistic replaced.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np
# numpy loads numpy.random on first attribute access; every chip's flag
# arrays seed a generator, so load it with the module, not mid-build
from numpy.random import default_rng

from repro.core.flag_cells import FlagCellModel, PulseSettings, default_plock_pulse
from repro.flash import constants
from repro.flash.errors import AddressError


def majority_disabled(
    programmed: int, smallest: Sequence[float], need: int, flip_prob: float
) -> bool:
    """Output of the k-bit majority circuit: True == access disabled.

    ``smallest`` holds the flag's smallest flip thresholds in ascending
    order (at least ``programmed - need + 1`` of them when that is
    positive); ``flip_prob`` is the per-cell retention flip probability
    at the query time.
    """
    index = programmed - need
    return index >= 0 and flip_prob < smallest[index]


@dataclass
class PageApArray:
    """pAP flags for every page of one block."""

    pages_per_block: int
    model: FlagCellModel = field(default_factory=FlagCellModel)
    pulse: PulseSettings = field(default_factory=default_plock_pulse)
    k: int = constants.PAP_REDUNDANCY_K
    seed: int = 0
    #: per-page lock day (None: never locked); empty until the first lock.
    _lock_day: list[float | None] = field(init=False, default_factory=list)
    #: per-page count of cells the lock pulse(s) programmed.
    _programmed: list[int] = field(init=False, default_factory=list)
    #: per-page ``need`` smallest flip thresholds, ascending.
    _smallest: list[tuple[float, ...]] = field(init=False, default_factory=list)
    _rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        if self.pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("k must be a positive odd number (majority vote)")
        self._rng = default_rng(self.seed)
        self._need = self.k // 2 + 1
        # model and pulse are frozen dataclasses: both terms are constants
        self._success = self.model.program_success_prob(self.pulse)
        self._margin = self.model.retention_margin(self.pulse)

    # ------------------------------------------------------------------
    def _check(self, page_offset: int) -> None:
        if not 0 <= page_offset < self.pages_per_block:
            raise AddressError(
                f"page offset {page_offset} out of range [0, {self.pages_per_block})"
            )

    def _allocate(self) -> list[float | None]:
        n = self.pages_per_block
        self._programmed = [0] * n
        self._smallest = [()] * n
        self._lock_day = [None] * n
        return self._lock_day

    def lock(self, page_offset: int, day: float = 0.0) -> None:
        """Execute the flag-programming half of a pLock command.

        Locking an already-locked page re-applies the pulse; cells that
        were missed the first time get another chance (idempotent from the
        security standpoint, monotonic in programmed cells).
        """
        if not 0 <= page_offset < self.pages_per_block:
            self._check(page_offset)
        lock_days = self._lock_day
        if not lock_days:
            lock_days = self._allocate()
        rng = self._rng
        programmed = self._programmed
        if lock_days[page_offset] is None:
            cells = int(rng.binomial(self.k, self._success))
            drawn = rng.random(cells).tolist()
            lock_days[page_offset] = day
            programmed[page_offset] = cells
        else:
            cells = programmed[page_offset]
            newly = int(rng.binomial(self.k - cells, self._success))
            if not newly:
                return
            drawn = [*self._smallest[page_offset], *rng.random(newly).tolist()]
            programmed[page_offset] = cells + newly
        drawn.sort()
        self._smallest[page_offset] = tuple(drawn[: self._need])

    def is_locked(self, page_offset: int) -> bool:
        """Whether a pLock was ever issued for the page (intent view)."""
        self._check(page_offset)
        return bool(self._lock_day) and self._lock_day[page_offset] is not None

    def programmed_cells(self, page_offset: int) -> int:
        """Flag cells the lock pulse(s) programmed (0 when never locked)."""
        self._check(page_offset)
        return self._programmed[page_offset] if self._programmed else 0

    def is_disabled(self, page_offset: int, day: float = 0.0) -> bool:
        """What the majority circuit reports at mission time ``day``."""
        if not 0 <= page_offset < self.pages_per_block:
            self._check(page_offset)
        lock_days = self._lock_day
        if not lock_days:
            return False
        lock_day = lock_days[page_offset]
        if lock_day is None:
            return False
        if day > lock_day:
            flip_prob = self.model.flip_prob_from_margin(self._margin, day - lock_day)
        else:
            flip_prob = 0.0
        return majority_disabled(
            self._programmed[page_offset],
            self._smallest[page_offset],
            self._need,
            flip_prob,
        )

    def locked_offsets(self) -> list[int]:
        return [i for i, d in enumerate(self._lock_day) if d is not None]

    def erase(self) -> None:
        """Block erase: every flag cell returns to the enabled state."""
        self._lock_day, self._programmed, self._smallest = [], [], []

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Checkpoint payload (see :mod:`repro.checkpoint`).

        Only locked pages are stored, as flat columns; ``thresholds``
        concatenates each page's ``min(programmed, need)`` smallest
        thresholds.  The RNG stream is captured as the bit generator's
        state dict so a restored array draws the exact same
        binomial/uniform sequence a never-interrupted run would.
        """
        offsets = self.locked_offsets()
        return {
            "offsets": offsets,
            "lock_day": [self._lock_day[i] for i in offsets],
            "programmed": [self._programmed[i] for i in offsets],
            "thresholds": [u for i in offsets for u in self._smallest[i]],
            "rng_state": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        self.erase()
        offsets = state["offsets"]
        if offsets:
            lock_days = self._allocate()
            thresholds = state["thresholds"]
            start = 0
            for offset, day, cells in zip(
                offsets, state["lock_day"], state["programmed"]
            ):
                stop = start + min(cells, self._need)
                lock_days[offset] = day
                self._programmed[offset] = cells
                self._smallest[offset] = tuple(thresholds[start:stop])
                start = stop
        self._rng.bit_generator.state = state["rng_state"]
