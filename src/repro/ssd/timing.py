"""Open-loop timing model for a multi-channel, multi-chip SSD.

The paper evaluates IOPS on FlashBench, an emulation platform where the
per-operation latencies (tREAD/tPROG/tBERS/tpLock/tbLock) and the
channel/chip topology determine throughput.  We reproduce that with a
resource-occupancy model:

* each **chip** can run one cell operation at a time (read sense,
  program, erase, pLock, bLock);
* each **channel** can transfer one page at a time (reads transfer after
  the sense; programs transfer before the cell operation);
* host requests arrive open-loop (the benchmark queue is always full,
  which is how IOPS is measured), so device throughput is limited purely
  by resource occupancy;
* elapsed time for a replay is the completion time of the last operation,
  and IOPS = host operations / elapsed seconds.

This captures exactly the effects the paper reports: erSSD's relocation
storms serialize on chips; pLock costs hide behind other chips' work
except when a workload (DBServer) concentrates small updates; bLock
replaces trains of pLocks on the same chip.

**Accounting contract** (the closed-loop engine in :mod:`repro.sim`
cross-checks against it, so it is normative):

* ``total_work_us`` is the sum of *raw operation durations* scheduled on
  any resource -- cell-op time on chips plus transfer time on channels --
  with no queueing or idle gaps.  It splits exactly into
  ``cell_work_us`` (sense/program/erase/lock/scrub occupancy on chips)
  and ``xfer_work_us`` (page movement occupancy on channels):
  ``total_work_us == cell_work_us + xfer_work_us`` always holds.
* ``elapsed_us`` is the completion time of the last scheduled operation,
  i.e. the open-loop makespan.  Under a saturating closed-loop workload
  the :class:`repro.sim.engine.QueueingEngine` must reproduce this
  makespan (and therefore IOPS) exactly under the ``fifo`` policy --
  that is the open-loop vs closed-loop agreement contract of DESIGN.md
  section 3e.
* ``t_scrub_us`` is the duration of one *scrub pulse*: a reprogram-style
  overwrite of an already-programmed wordline, used by scrSSD's
  sanitization pass and by grown-bad-block retirement.  One scrub pulse
  is a single ISPP program burst just like a pLock pulse, so it defaults
  to ``tpLock`` (Section 7 evaluates both at 100 us); it is configurable
  separately through :class:`repro.ssd.config.SSDConfig.t_scrub_us`
  because real scrub pulses may use a coarser step voltage.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.flash import constants


@dataclass
class TimingModel:
    """Per-chip and per-channel busy-until bookkeeping."""

    n_channels: int
    chips_per_channel: int
    t_read_us: float = constants.T_READ_US
    t_prog_us: float = constants.T_PROG_US
    t_erase_us: float = constants.T_BERS_US
    t_plock_us: float = constants.T_PLOCK_US
    t_block_lock_us: float = constants.T_BLOCK_LOCK_US
    t_scrub_us: float = constants.T_PLOCK_US  # one-shot scrub pulse (Sec. 7)
    t_xfer_us: float = constants.T_XFER_US
    chip_busy: list[float] = field(init=False)
    channel_busy: list[float] = field(init=False)
    #: total device work scheduled (pure operation durations, no idle);
    #: always equals ``cell_work_us + xfer_work_us``.
    total_work_us: float = field(init=False, default=0.0)
    #: chip occupancy scheduled (sense/program/erase/lock/scrub time).
    cell_work_us: float = field(init=False, default=0.0)
    #: channel occupancy scheduled (page transfer time).
    xfer_work_us: float = field(init=False, default=0.0)
    #: nesting depth of :meth:`sanitize_region` -- positive while the
    #: FTL is doing sanitization-driven work (relocations, sanitize
    #: erases, lock fallbacks), so instrumented timing models can
    #: attribute the flash ops they capture.
    _sanitize_depth: int = field(init=False, default=0)

    #: timing fields every instance must hold positive (validation).
    TIMING_FIELDS = (
        "t_read_us",
        "t_prog_us",
        "t_erase_us",
        "t_plock_us",
        "t_block_lock_us",
        "t_scrub_us",
        "t_xfer_us",
    )

    def __post_init__(self) -> None:
        if self.n_channels <= 0 or self.chips_per_channel <= 0:
            raise ValueError("topology dimensions must be positive")
        for name in self.TIMING_FIELDS:
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        self.chip_busy = [0.0] * self.n_chips
        self.channel_busy = [0.0] * self.n_channels

    # ------------------------------------------------------------------
    @property
    def n_chips(self) -> int:
        return self.n_channels * self.chips_per_channel

    def channel_of(self, chip_id: int) -> int:
        self._check_chip(chip_id)
        return chip_id // self.chips_per_channel

    def _check_chip(self, chip_id: int) -> None:
        if not 0 <= chip_id < self.n_chips:
            raise ValueError(f"chip {chip_id} out of range [0, {self.n_chips})")

    # ------------------------------------------------------------------
    @contextmanager
    def sanitize_region(self):
        """Mark a region of FTL work as sanitization-driven.

        The FTL brackets relocate-and-erase passes, scrub passes, and
        lock-fallback paths with this scope; the plain model ignores it
        (timing is unchanged), but :class:`repro.sim.ops.RecordingTiming`
        tags the flash ops captured inside so the closed-loop engine can
        account queued sanitization work separately from host I/O and
        plain GC.  Re-entrant (scopes nest).
        """
        self._sanitize_depth += 1
        try:
            yield
        finally:
            self._sanitize_depth -= 1

    # ------------------------------------------------------------------
    # The scheduling methods below run once per captured flash op
    # (hundreds of thousands per benchmark run), so they inline the
    # bounds check and the work accounting instead of paying extra
    # function calls per op.  The accounting order is fixed (cell, then
    # xfer, then total) -- float addition is order-sensitive and the
    # totals feed byte-identity contracts.

    def read(self, chip_id: int) -> float:
        """Schedule a page read: chip sense, then channel transfer out."""
        chip_busy = self.chip_busy
        if not 0 <= chip_id < len(chip_busy):
            self._check_chip(chip_id)
        ch = chip_id // self.chips_per_channel
        sense_end = chip_busy[chip_id] + self.t_read_us
        chip_busy[chip_id] = sense_end
        chan_free = self.channel_busy[ch]
        xfer_start = sense_end if sense_end > chan_free else chan_free
        end = xfer_start + self.t_xfer_us
        self.channel_busy[ch] = end
        self.cell_work_us += self.t_read_us
        self.xfer_work_us += self.t_xfer_us
        self.total_work_us += self.t_read_us + self.t_xfer_us
        return end

    def program(self, chip_id: int) -> float:
        """Schedule a page program: channel transfer in, then cell op."""
        chip_busy = self.chip_busy
        if not 0 <= chip_id < len(chip_busy):
            self._check_chip(chip_id)
        ch = chip_id // self.chips_per_channel
        # busy times are monotone from 0.0, so the channel is its own
        # max against zero
        xfer_end = self.channel_busy[ch] + self.t_xfer_us
        self.channel_busy[ch] = xfer_end
        chip_free = chip_busy[chip_id]
        start = chip_free if chip_free > xfer_end else xfer_end
        end = start + self.t_prog_us
        chip_busy[chip_id] = end
        self.cell_work_us += self.t_prog_us
        self.xfer_work_us += self.t_xfer_us
        self.total_work_us += self.t_prog_us + self.t_xfer_us
        return end

    def copy(self, src_chip: int, dst_chip: int) -> float:
        """Schedule a page copy (GC move): read on src, program on dst."""
        self.read(src_chip)
        return self.program(dst_chip)

    def _cell_only(self, chip_id: int, duration_us: float) -> float:
        """Schedule a cell-only op (no channel transfer)."""
        chip_busy = self.chip_busy
        if not 0 <= chip_id < len(chip_busy):
            self._check_chip(chip_id)
        chip_busy[chip_id] += duration_us
        self.cell_work_us += duration_us
        self.total_work_us += duration_us
        return chip_busy[chip_id]

    def erase(self, chip_id: int) -> float:
        return self._cell_only(chip_id, self.t_erase_us)

    def plock(self, chip_id: int) -> float:
        return self._cell_only(chip_id, self.t_plock_us)

    def block_lock(self, chip_id: int) -> float:
        return self._cell_only(chip_id, self.t_block_lock_us)

    def scrub(self, chip_id: int) -> float:
        return self._cell_only(chip_id, self.t_scrub_us)

    # ------------------------------------------------------------------
    @property
    def elapsed_us(self) -> float:
        """Completion time of the last scheduled operation."""
        return max(max(self.chip_busy, default=0.0), max(self.channel_busy, default=0.0))

    def utilization(self) -> list[float]:
        """Per-chip busy fraction relative to the overall elapsed time."""
        total = self.elapsed_us
        if total <= 0.0:
            return [0.0] * self.n_chips
        return [b / total for b in self.chip_busy]

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """Checkpoint payload: busy arrays + work accumulators, plus the
        per-op durations for validation only (a restore target whose
        timings differ was built from different parameters -- e.g. a
        cryptSSD checkpoint loaded into a baseline device)."""
        return {
            "chip_busy": list(self.chip_busy),
            "channel_busy": list(self.channel_busy),
            "total_work_us": self.total_work_us,
            "cell_work_us": self.cell_work_us,
            "xfer_work_us": self.xfer_work_us,
            "timings": {name: getattr(self, name) for name in self.TIMING_FIELDS},
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        if len(state["chip_busy"]) != len(self.chip_busy) or len(
            state["channel_busy"]
        ) != len(self.channel_busy):
            raise ValueError("timing checkpoint does not match topology")
        for name in self.TIMING_FIELDS:
            if state["timings"][name] != getattr(self, name):
                raise ValueError(
                    f"timing checkpoint {name}={state['timings'][name]!r} does"
                    f" not match the configured {getattr(self, name)!r}"
                )
        self.chip_busy = list(state["chip_busy"])
        self.channel_busy = list(state["channel_busy"])
        self.total_work_us = state["total_work_us"]
        self.cell_work_us = state["cell_work_us"]
        self.xfer_work_us = state["xfer_work_us"]
