"""VerTrace: the data-versioning profiler of Section 3.

VerTrace annotates every physical page with the file it belongs to and
watches the FTL's page lifecycle to answer the paper's two questions:

* **How many stale versions of a file exist?**  Captured by the version
  amplification factor ``VAF(f) = max_t N_invalid(f,t) / max_t
  N_valid(f,t)``.
* **For how long?**  Captured by ``Tinsecure(f)``, the total logical time
  during which the file has at least one invalid (recoverable) physical
  page, normalized to the writes needed to fill the device once.

Logical time advances by one tick per 4-KiB host write (Section 3's
clock).  Files are classified *uni-version* (UV) until the host
overwrites or deletes them, which reclassifies them *multi-version*
(MV).  Pages destroyed by sanitization (lock/scrub/erase) stop counting
as invalid -- on a sanitizing SSD the profiler therefore reports the
post-sanitization exposure, which is how the C1/C2 guarantees are
checked end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FileVersionState:
    """Live profiling state for one file."""

    fid: int
    valid: set[int] = field(default_factory=set)
    invalid: set[int] = field(default_factory=set)
    max_valid: int = 0
    max_invalid: int = 0
    multi_version: bool = False
    insecure_since: int | None = None
    insecure_ticks: int = 0

    def observe_extrema(self) -> None:
        if len(self.valid) > self.max_valid:
            self.max_valid = len(self.valid)
        if len(self.invalid) > self.max_invalid:
            self.max_invalid = len(self.invalid)

    def vaf(self) -> float:
        """Version amplification factor (0 when the file never had data)."""
        if self.max_valid == 0:
            return 0.0
        return self.max_invalid / self.max_valid


@dataclass(frozen=True)
class TimeplotSample:
    """One (logical time, valid count, invalid count) sample (Figure 4)."""

    tick: int
    valid: int
    invalid: int


class VerTrace:
    """FTL observer building per-file versioning metrics.

    Parameters
    ----------
    capacity_ticks:
        Logical ticks needed to fill the device once (logical pages x
        page size / 4 KiB); used to normalize ``Tinsecure``.
    timeplot_files:
        Optional set of file ids whose (valid, invalid) trajectories are
        recorded for Figure-4-style plots.
    """

    def __init__(
        self,
        capacity_ticks: int,
        pages_per_block: int,
        timeplot_files: set[int] | None = None,
        track_all: bool = False,
    ) -> None:
        if capacity_ticks <= 0:
            raise ValueError("capacity_ticks must be positive")
        if pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        self.capacity_ticks = capacity_ticks
        self.pages_per_block = pages_per_block
        self.track_all = track_all
        self.now = 0
        self._files: dict[int, FileVersionState] = {}
        self._owner: dict[int, int] = {}  # gppa -> fid
        #: files touched since the last tick; their extrema/timeplots are
        #: sampled at tick boundaries so that intra-request transients
        #: (e.g. invalidate-then-lock within one write) do not register.
        self._dirty: set[int] = set()
        self._timeplot_files = set(timeplot_files or ())
        self._timeplots: dict[int, list[TimeplotSample]] = {
            fid: [] for fid in self._timeplot_files
        }

    # ------------------------------------------------------------------
    @classmethod
    def for_config(
        cls,
        config,
        timeplot_files: set[int] | None = None,
        track_all: bool = False,
    ) -> "VerTrace":
        """Build a profiler sized for an :class:`~repro.ssd.config.SSDConfig`."""
        from repro.flash.constants import LOGICAL_TIME_WRITE_BYTES

        ticks = config.logical_pages * (
            config.geometry.page_size_bytes // LOGICAL_TIME_WRITE_BYTES
        )
        return cls(
            capacity_ticks=ticks,
            pages_per_block=config.geometry.pages_per_block,
            timeplot_files=timeplot_files,
            track_all=track_all,
        )

    # ------------------------------------------------------------------
    # FtlObserver interface
    # ------------------------------------------------------------------
    def on_program(self, gppa: int, lpa: int, tag: object, secure: bool) -> None:
        if not isinstance(tag, int):
            return  # untagged traffic (e.g. scrub pads) is not file data
        state = self._state(tag)
        state.valid.add(gppa)
        self._owner[gppa] = tag
        self._dirty.add(state.fid)

    def on_invalidate(self, gppa: int, lpa: int, reason: str) -> None:
        fid = self._owner.get(gppa)
        if fid is None:
            return
        state = self._files[fid]
        state.valid.discard(gppa)
        state.invalid.add(gppa)
        if reason in ("host-update", "host-trim"):
            state.multi_version = True
        if state.insecure_since is None and state.invalid:
            state.insecure_since = self.now
        self._dirty.add(fid)

    def on_sanitize(self, gppa: int, method: str) -> None:
        self._drop_invalid(gppa)

    def on_erase(self, global_block: int) -> None:
        """Erase physically destroys every page of the block."""
        base = global_block * self.pages_per_block
        for gppa in range(base, base + self.pages_per_block):
            self._drop_invalid(gppa)

    def on_logical_tick(self, ticks: int) -> None:
        self._flush_dirty()
        self.now += ticks

    def on_lock_deferred(self, chip_id: int, n_locks: int, deferred_us: float) -> None:
        pass  # deferral moves lock pulses in time, not page versions

    # ------------------------------------------------------------------
    def _flush_dirty(self) -> None:
        """Sample extrema/timeplots of files touched since the last tick."""
        for fid in self._dirty:
            state = self._files[fid]
            state.observe_extrema()
            self._sample(state)
        self._dirty.clear()

    def _drop_invalid(self, gppa: int) -> None:
        fid = self._owner.pop(gppa, None)
        if fid is None:
            return
        state = self._files[fid]
        state.valid.discard(gppa)
        state.invalid.discard(gppa)
        if not state.invalid and state.insecure_since is not None:
            state.insecure_ticks += self.now - state.insecure_since
            state.insecure_since = None
        self._dirty.add(fid)

    def _state(self, fid: int) -> FileVersionState:
        state = self._files.get(fid)
        if state is None:
            state = FileVersionState(fid)
            self._files[fid] = state
        return state

    def _sample(self, state: FileVersionState) -> None:
        if self.track_all or state.fid in self._timeplot_files:
            self._timeplots.setdefault(state.fid, []).append(
                TimeplotSample(self.now, len(state.valid), len(state.invalid))
            )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush pending samples and open insecure intervals."""
        self._flush_dirty()
        for state in self._files.values():
            if state.insecure_since is not None:
                state.insecure_ticks += self.now - state.insecure_since
                state.insecure_since = None

    def track_timeplot(self, fid: int) -> None:
        self._timeplot_files.add(fid)
        self._timeplots.setdefault(fid, [])

    def timeplot(self, fid: int) -> list[TimeplotSample]:
        return self._timeplots[fid]

    def file_state(self, fid: int) -> FileVersionState:
        return self._files[fid]

    def files(self) -> list[FileVersionState]:
        """All profiled files (both classes)."""
        return list(self._files.values())

    def vaf(self, fid: int) -> float:
        return self._files[fid].vaf()

    def t_insecure(self, fid: int) -> float:
        """Normalized insecure time (1.0 == one full device of writes)."""
        state = self._files[fid]
        open_ticks = (
            self.now - state.insecure_since
            if state.insecure_since is not None
            else 0
        )
        return (state.insecure_ticks + open_ticks) / self.capacity_ticks

    def summarize(self) -> dict[str, dict[str, float]]:
        """Table-1 aggregates: avg/max VAF and Tinsecure per file class."""
        out: dict[str, dict[str, float]] = {}
        for cls_name, is_mv in (("uv", False), ("mv", True)):
            files = [
                s
                for s in self._files.values()
                if s.multi_version == is_mv and s.max_valid > 0
            ]
            if not files:
                out[cls_name] = {
                    "count": 0.0,
                    "vaf_avg": 0.0,
                    "vaf_max": 0.0,
                    "tinsec_avg": 0.0,
                    "tinsec_max": 0.0,
                }
                continue
            vafs = [s.vaf() for s in files]
            tins = [self.t_insecure(s.fid) for s in files]
            out[cls_name] = {
                "count": float(len(files)),
                "vaf_avg": sum(vafs) / len(vafs),
                "vaf_max": max(vafs),
                "tinsec_avg": sum(tins) / len(tins),
                "tinsec_max": max(tins),
            }
        return out
