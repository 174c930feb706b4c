"""Device-level statistics: IOPS, WAF, erase counts, lock counts.

These are the quantities Figure 14 and the Section 1 headline numbers are
built from:

* **IOPS** = host operations / elapsed device time;
* **WAF** (write amplification factor) = flash page programs / host page
  writes;
* erase, pLock, bLock, and scrub counts for the lifetime comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class DeviceStats:
    """Cumulative counters for one SSD run."""

    host_reads: int = 0
    host_writes: int = 0
    host_trims: int = 0
    flash_reads: int = 0
    flash_programs: int = 0
    flash_erases: int = 0
    gc_copies: int = 0
    gc_invocations: int = 0
    plocks: int = 0
    block_locks: int = 0
    scrubs: int = 0
    relocation_copies: int = 0  # sanitization-driven copies (erSSD/scrSSD)
    sanitize_erases: int = 0    # immediate erases for sanitization (erSSD)
    refreshes: int = 0          # read-disturb refresh rounds
    refresh_copies: int = 0     # pages moved by read refresh
    wear_levelings: int = 0     # static wear-leveling migration rounds
    wear_level_copies: int = 0  # pages moved by wear leveling

    # robustness counters (repro.faults fault handling)
    read_retries: int = 0        # extra read attempts after an ECC fail
    read_failures: int = 0       # reads that exhausted the retry budget
    salvage_reads: int = 0       # last-resort GC reads past the budget
    program_fails: int = 0       # page programs that status-failed (torn)
    erase_fails: int = 0         # block erases that status-failed
    lock_retries: int = 0        # extra pLock/bLock pulses after a verify miss
    lock_failures: int = 0       # locks unset after the full retry budget
    fallback_block_locks: int = 0  # pLock failures escalated to bLock
    fallback_erases: int = 0     # bLock failures escalated to erase/scrub
    grown_bad_blocks: int = 0    # blocks retired to the grown-bad table
    worn_out_blocks: int = 0     # blocks retired at their P/E limit
    #: host pages written when the first block wore out; -1 = none did.
    host_writes_at_first_wearout: int = -1

    # ------------------------------------------------------------------
    @property
    def host_ops(self) -> int:
        return self.host_reads + self.host_writes + self.host_trims

    @property
    def waf(self) -> float:
        """Write amplification: flash programs per host page write."""
        if self.host_writes == 0:
            return 0.0
        return self.flash_programs / self.host_writes

    def iops(self, elapsed_us: float) -> float:
        """Host I/O operations per second for the given elapsed time."""
        if elapsed_us <= 0.0:
            return 0.0
        return self.host_ops / (elapsed_us / 1e6)

    # ------------------------------------------------------------------
    def robustness(self) -> dict[str, int]:
        """The fault-handling counters as an ordered, JSON-ready dict."""
        return {
            "read_retries": self.read_retries,
            "read_failures": self.read_failures,
            "salvage_reads": self.salvage_reads,
            "program_fails": self.program_fails,
            "erase_fails": self.erase_fails,
            "lock_retries": self.lock_retries,
            "lock_failures": self.lock_failures,
            "fallback_block_locks": self.fallback_block_locks,
            "fallback_erases": self.fallback_erases,
            "grown_bad_blocks": self.grown_bad_blocks,
            "worn_out_blocks": self.worn_out_blocks,
        }

    def to_dict(self) -> dict[str, int]:
        """Every counter field, losslessly (no derived quantities).

        A round-trippable serialization: the keys are exactly the
        dataclass fields (derived quantities such as :attr:`waf` are
        not among them), so
        ``DeviceStats.from_dict(stats.to_dict()) == stats``.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "DeviceStats":
        """Rebuild from :meth:`to_dict` output; unknown keys raise."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown DeviceStats fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class RunResult:
    """Outcome of replaying one workload on one SSD configuration.

    The device's side only: a closed-loop run's latency percentiles and
    per-resource utilization are the engine's, on its ``EngineReport``.
    """

    name: str
    stats: DeviceStats
    elapsed_us: float
    #: a checkpointed campaign's ``"checkpoint_recovery"`` reports.
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def iops(self) -> float:
        return self.stats.iops(self.elapsed_us)

    @property
    def waf(self) -> float:
        return self.stats.waf

    @property
    def robustness(self) -> dict[str, int]:
        """Retry/fallback/grown-bad counters (fault-injection runs)."""
        return self.stats.robustness()

    def normalized_iops(self, baseline: "RunResult") -> float:
        if baseline.iops == 0.0:
            raise ValueError("baseline has zero IOPS")
        return self.iops / baseline.iops

    def normalized_waf(self, baseline: "RunResult") -> float:
        if baseline.waf == 0.0:
            raise ValueError("baseline has zero WAF")
        return self.waf / baseline.waf
