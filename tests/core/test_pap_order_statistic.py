"""Differential oracle: order-statistic pAP flags against per-cell arrays.

``PageApArray`` keeps, per locked page, only the ``need = k // 2 + 1``
smallest flip thresholds and answers the majority circuit with one
comparison against the ``programmed - need`` order statistic.  The
reference below is the per-cell representation it replaced, copied
verbatim: one ``PapFlag`` per page holding every programmed cell's
threshold, counted with ``np.count_nonzero`` on each query.  Both run the
same seeded stream of locks, re-locks, erases, checkpoint round trips and
queries, and must agree on every answer and on the RNG state.

Two flip-probability curves are used.  The calibrated one covers the
real retention physics over 0 to 20,000 days.  A linear one
(``q = elapsed days``, capped at 1) lets a query land *exactly* on a
stored threshold -- the lock day is 0 and the query day is the
threshold -- which is where ``<`` and ``<=`` part ways.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.checkpoint.codec import canonical_dumps, decode, encode
from repro.core import ap_flags
from repro.core.flag_cells import (
    FlagCellModel,
    PulseSettings,
    default_plock_pulse,
    plock_design_space,
)
from repro.flash import constants
from repro.flash.errors import AddressError

# ----------------------------------------------------------------------
# Reference: the per-cell implementation, verbatim.
# ----------------------------------------------------------------------


@dataclass
class PapFlag:
    """State of one page's pAP flag (k redundant cells)."""

    k: int
    #: number of cells the lock pulse successfully programmed.
    programmed_cells: int = 0
    #: per-cell uniform draws; cell i flips once retention_flip_prob >= u_i.
    flip_thresholds: np.ndarray | None = None
    lock_day: float | None = None

    @property
    def locked(self) -> bool:
        return self.lock_day is not None

    def cells_reading_programmed(
        self, model: FlagCellModel, pulse: PulseSettings, day: float
    ) -> int:
        """Cells still reading as programmed ``day`` days into the mission."""
        if not self.locked:
            return 0
        elapsed = max(0.0, day - float(self.lock_day))
        q = model.retention_flip_prob(pulse, elapsed)
        flipped = int(np.count_nonzero(self.flip_thresholds <= q))
        return self.programmed_cells - flipped

    def majority_disabled(
        self, model: FlagCellModel, pulse: PulseSettings, day: float
    ) -> bool:
        """Output of the k-bit majority circuit: True == access disabled."""
        need = self.k // 2 + 1
        return self.cells_reading_programmed(model, pulse, day) >= need


@dataclass
class PageApArray:
    """pAP flags for every page of one block."""

    pages_per_block: int
    model: FlagCellModel = field(default_factory=FlagCellModel)
    pulse: PulseSettings = field(default_factory=default_plock_pulse)
    k: int = constants.PAP_REDUNDANCY_K
    seed: int = 0
    _flags: dict[int, PapFlag] = field(init=False, default_factory=dict)
    _rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        if self.pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("k must be a positive odd number (majority vote)")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def _check(self, page_offset: int) -> None:
        if not 0 <= page_offset < self.pages_per_block:
            raise AddressError(
                f"page offset {page_offset} out of range [0, {self.pages_per_block})"
            )

    def lock(self, page_offset: int, day: float = 0.0) -> PapFlag:
        """Execute the flag-programming half of a pLock command.

        Locking an already-locked page re-applies the pulse; cells that
        were missed the first time get another chance (idempotent from the
        security standpoint, monotonic in programmed cells).
        """
        self._check(page_offset)
        flag = self._flags.get(page_offset)
        success = self.model.program_success_prob(self.pulse)
        if flag is None:
            programmed = int(self._rng.binomial(self.k, success))
            flag = PapFlag(
                k=self.k,
                programmed_cells=programmed,
                flip_thresholds=self._rng.random(programmed),
                lock_day=day,
            )
            self._flags[page_offset] = flag
            return flag
        missed = flag.k - flag.programmed_cells
        newly = int(self._rng.binomial(missed, success))
        if newly:
            flag.programmed_cells += newly
            flag.flip_thresholds = np.concatenate(
                [flag.flip_thresholds, self._rng.random(newly)]
            )
        return flag

    def is_locked(self, page_offset: int) -> bool:
        """Whether a pLock was ever issued for the page (intent view)."""
        self._check(page_offset)
        return page_offset in self._flags

    def is_disabled(self, page_offset: int, day: float = 0.0) -> bool:
        """What the majority circuit reports at mission time ``day``."""
        self._check(page_offset)
        flag = self._flags.get(page_offset)
        if flag is None:
            return False
        return flag.majority_disabled(self.model, self.pulse, day)

    def locked_offsets(self) -> list[int]:
        return sorted(self._flags)

    def erase(self) -> None:
        """Block erase: every flag cell returns to the enabled state."""
        self._flags.clear()

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """Checkpoint payload (see :mod:`repro.checkpoint`).

        The RNG stream is captured as the bit generator's state dict so a
        restored array draws the exact same binomial/uniform sequence a
        never-interrupted run would.
        """
        return {
            "flags": {
                offset: {
                    "k": flag.k,
                    "programmed_cells": flag.programmed_cells,
                    "flip_thresholds": flag.flip_thresholds,
                    "lock_day": flag.lock_day,
                }
                for offset, flag in self._flags.items()
            },
            "rng_state": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self._flags = {
            offset: PapFlag(
                k=payload["k"],
                programmed_cells=payload["programmed_cells"],
                flip_thresholds=payload["flip_thresholds"],
                lock_day=payload["lock_day"],
            )
            for offset, payload in state["flags"].items()
        }
        self._rng.bit_generator.state = state["rng_state"]


# ----------------------------------------------------------------------
# The stream
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LinearFlipModel(FlagCellModel):
    """Flip probability equal to the elapsed days, capped at 1."""

    def flip_prob_from_margin(self, margin: float, days: float) -> float:
        if days <= 0.0:
            return 0.0
        return min(days, 1.0)


#: model, last query day, last lock day.  Linear-model locks all happen
#: on day 0, so a query on day ``u`` sees flip probability exactly ``u``.
MODELS = {
    "calibrated": (FlagCellModel(), 20_000.0, 20_000.0),
    "linear": (LinearFlipModel(), 1.0, 0.0),
}

_OFFSET = st.integers(0, 15)
_FRACTION = st.floats(0.0, 1.0)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("lock"), _OFFSET, st.one_of(st.just(0.0), _FRACTION)),
        st.tuples(st.just("query"), _FRACTION),
        st.tuples(st.just("probe"), _OFFSET),
        st.tuples(st.just("erase")),
        st.tuples(st.just("roundtrip")),
    ),
    max_size=60,
)


def _through_codec(state):
    return decode(json.loads(canonical_dumps(encode(state))))


def _assert_agree(ref, new, day):
    assert new.locked_offsets() == ref.locked_offsets()
    assert new._rng.bit_generator.state == ref._rng.bit_generator.state
    for offset in range(ref.pages_per_block):
        flag = ref._flags.get(offset)
        assert new.is_locked(offset) == ref.is_locked(offset)
        assert new.programmed_cells(offset) == (flag.programmed_cells if flag else 0)
        assert new.is_disabled(offset, day) == ref.is_disabled(offset, day)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    pages=st.integers(1, 16),
    k=st.sampled_from([1, 3, 5, 9]),
    pulse=st.sampled_from(plock_design_space()),
    model_name=st.sampled_from(sorted(MODELS)),
    seed=st.integers(0, 2**32 - 1),
    ops=_OPS,
)
# a tie on every decisive threshold: locks on day 0, probes under q = days
@example(
    pages=4,
    k=9,
    pulse=max(plock_design_space(), key=lambda p: (p.vpgm, p.latency_us)),
    model_name="linear",
    seed=0,
    ops=[("lock", o, 0.0) for o in range(4)] + [("probe", o) for o in range(4)],
)
def test_order_statistic_matches_per_cell_flags(pages, k, pulse, model_name, seed, ops):
    model, horizon, lock_horizon = MODELS[model_name]
    params = dict(pages_per_block=pages, model=model, pulse=pulse, k=k, seed=seed)
    ref, new = PageApArray(**params), ap_flags.PageApArray(**params)
    for op in ops:
        kind = op[0]
        day = 0.0
        if kind == "lock":
            offset = op[1] % pages
            day = op[2] * lock_horizon
            ref.lock(offset, day)
            new.lock(offset, day)
        elif kind == "query":
            day = op[1] * horizon
        elif kind == "probe":
            # query the page exactly at each of its cells' thresholds
            offset = op[1] % pages
            flag = ref._flags.get(offset)
            for u in [] if flag is None else flag.flip_thresholds.tolist():
                probe = flag.lock_day + u
                assert new.is_disabled(offset, probe) == ref.is_disabled(offset, probe)
        elif kind == "erase":
            ref.erase()
            new.erase()
        else:
            ref_state = _through_codec(ref.state_dict())
            new_state = _through_codec(new.state_dict())
            ref, new = PageApArray(**params), ap_flags.PageApArray(**params)
            ref.load_state_dict(ref_state)
            new.load_state_dict(new_state)
        _assert_agree(ref, new, day)
