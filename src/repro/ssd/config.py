"""SSD configuration -- the Section 7 device and scaled test variants.

The paper's SecureSSD: two channels, four 3D TLC chips per channel; each
chip 428 blocks of 576 16-KiB pages (192 wordlines x 3), 32 GiB total,
with timing tREAD=80us / tPROG=700us / tBERS=3.5ms / tpLock=100us /
tbLock=300us.

:func:`paper_config` reproduces that device.  :func:`scaled_config`
shrinks capacity while keeping the topology, page size, and in-block
structure identical, which preserves GC and lock dynamics at a fraction
of the simulation cost -- the same trick the paper itself uses ("we limit
its SSD capacity to 32 GiB for fast evaluation").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flash import constants
from repro.flash.geometry import CellType, Geometry


@dataclass(frozen=True)
class SSDConfig:
    """Full device description."""

    n_channels: int = 2
    chips_per_channel: int = 4
    geometry: Geometry = field(default_factory=Geometry)
    #: fraction of physical capacity hidden from the host (overprovision).
    overprovision: float = 0.125
    #: GC starts when a chip's free+pending blocks drop to this count.
    gc_threshold_blocks: int = 3
    #: GC stops once it has reclaimed up to this many free blocks.
    gc_target_blocks: int = 5
    #: victim-selection policy (see repro.ftl.gc_policies.GC_POLICIES).
    gc_policy: str = "greedy"
    #: route GC relocations to a separate open block per chip (hot/cold
    #: stream separation); False matches the paper's single-stream FTL.
    separate_gc_stream: bool = False
    #: host reads of one block before its data is refreshed (relocated)
    #: to cap read disturbance; None disables read refresh.  Real TLC
    #: parts refresh around 100K reads; scale with the device.
    read_refresh_threshold: int | None = None
    #: read attempts (first try + retries) before a read surfaces
    #: UncorrectableError to the caller.
    read_retry_limit: int = 4
    #: extra pLock/bLock pulses the lock manager re-issues (the pulses
    #: are monotonic: a retry re-programs missed flag cells) before it
    #: escalates down the fallback chain.
    lock_retry_limit: int = 2
    #: program status-fails in one block before it is condemned and
    #: retired to the grown-bad table at its next collection; 0 disables
    #: program-failure retirement.
    program_fail_retire_threshold: int = 2
    #: per-block P/E endurance limit: an erase at this count raises
    #: ``WearOutError`` and the FTL scrubs + retires the block (the
    #: grown-bad flow).  None models an ideal, never-wearing device --
    #: the historical default every existing artifact was produced with.
    pe_limit: int | None = None
    #: couple live block wear into the read path: a read's expected RBER
    #: is derived from the owning block's erase count through the shared
    #: StressBucketCache, and reads past the ECC limit fail.  Off by
    #: default so same-seed artifacts stay byte-identical.
    wear_coupling: bool = False
    #: static wear-leveling trigger: when a chip's (max - min) erase-count
    #: delta reaches this, the coldest full block's live data is migrated
    #: so the low-wear block re-enters circulation.  None disables it.
    wear_leveling_threshold: int | None = None
    #: dynamic wear-aware allocation: open the least-worn reusable block
    #: instead of the FIFO head.  Off by default (FIFO is the paper's
    #: FlashBench FTL and the historical byte-identity baseline).
    wear_aware_allocation: bool = False
    t_read_us: float = constants.T_READ_US
    t_prog_us: float = constants.T_PROG_US
    t_erase_us: float = constants.T_BERS_US
    t_plock_us: float = constants.T_PLOCK_US
    t_block_lock_us: float = constants.T_BLOCK_LOCK_US
    #: one scrub pulse (reprogram-overwrite of a programmed wordline);
    #: a single ISPP burst like a pLock pulse, hence the shared default
    #: (see the accounting contract in repro/ftl/timing.py).
    t_scrub_us: float = constants.T_PLOCK_US
    t_xfer_us: float = constants.T_XFER_US

    def __post_init__(self) -> None:
        for name in (
            "t_read_us",
            "t_prog_us",
            "t_erase_us",
            "t_plock_us",
            "t_block_lock_us",
            "t_scrub_us",
            "t_xfer_us",
        ):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not 0.0 < self.overprovision < 1.0:
            raise ValueError("overprovision must be in (0, 1)")
        if self.gc_threshold_blocks < 1:
            raise ValueError("gc_threshold_blocks must be >= 1")
        if self.gc_target_blocks < self.gc_threshold_blocks:
            raise ValueError("gc_target_blocks must be >= gc_threshold_blocks")
        if self.read_retry_limit < 1:
            raise ValueError("read_retry_limit must be >= 1")
        if self.lock_retry_limit < 0:
            raise ValueError("lock_retry_limit must be >= 0")
        if self.program_fail_retire_threshold < 0:
            raise ValueError("program_fail_retire_threshold must be >= 0")
        if self.pe_limit is not None and self.pe_limit < 1:
            raise ValueError("pe_limit must be >= 1 (or None for no limit)")
        if (
            self.wear_leveling_threshold is not None
            and self.wear_leveling_threshold < 1
        ):
            raise ValueError(
                "wear_leveling_threshold must be >= 1 (or None to disable)"
            )
        min_blocks = self.gc_target_blocks + 2
        if self.geometry.blocks_per_chip <= min_blocks:
            raise ValueError(
                f"need more than {min_blocks} blocks per chip for GC headroom"
            )
        from repro.ftl.gc_policies import GC_POLICIES

        if self.gc_policy not in GC_POLICIES:
            raise ValueError(
                f"unknown gc_policy {self.gc_policy!r}; "
                f"choose from {sorted(GC_POLICIES)}"
            )

    # ------------------------------------------------------------------
    @property
    def n_chips(self) -> int:
        return self.n_channels * self.chips_per_channel

    @property
    def physical_pages(self) -> int:
        return self.n_chips * self.geometry.pages_per_chip

    @property
    def logical_pages(self) -> int:
        """Host-visible pages after overprovisioning."""
        return int(self.physical_pages * (1.0 - self.overprovision))

    @property
    def logical_bytes(self) -> int:
        return self.logical_pages * self.geometry.page_size_bytes

    @property
    def physical_bytes(self) -> int:
        return self.physical_pages * self.geometry.page_size_bytes

    def sanitize_latency_us(self) -> dict[str, float]:
        """Per-method pulse latency that trace headers carry for exposure
        windows (key deletion is a controller-RAM update: 0)."""
        return {
            "plock": self.t_plock_us,
            "block_lock": self.t_block_lock_us,
            "erase": self.t_erase_us,
            "scrub": self.t_scrub_us,
            "key_delete": 0.0,
        }


def paper_config() -> SSDConfig:
    """The exact Section-7 SecureSSD configuration (32 GiB)."""
    return SSDConfig(
        n_channels=2,
        chips_per_channel=4,
        geometry=Geometry(
            blocks_per_chip=428,
            wordlines_per_block=192,
            cell_type=CellType.TLC,
            page_size_bytes=16 * 1024,
        ),
    )


def scaled_config(
    blocks_per_chip: int = 56,
    wordlines_per_block: int = 32,
    n_channels: int = 2,
    chips_per_channel: int = 4,
    pe_limit: int | None = None,
    wear_coupling: bool = False,
    wear_leveling_threshold: int | None = None,
    wear_aware_allocation: bool = False,
) -> SSDConfig:
    """A capacity-scaled device with the paper's topology and timing.

    Default: 2x4 chips x 56 blocks x 96 pages x 16 KiB = ~656 MiB, small
    enough for fast trace replay yet large enough for steady-state GC.
    The endurance/wear knobs default off, matching the fresh-forever
    device every pre-aging artifact was produced with.
    """
    return SSDConfig(
        n_channels=n_channels,
        chips_per_channel=chips_per_channel,
        geometry=Geometry(
            blocks_per_chip=blocks_per_chip,
            wordlines_per_block=wordlines_per_block,
            cell_type=CellType.TLC,
            page_size_bytes=16 * 1024,
        ),
        pe_limit=pe_limit,
        wear_coupling=wear_coupling,
        wear_leveling_threshold=wear_leveling_threshold,
        wear_aware_allocation=wear_aware_allocation,
    )
