"""EvanescoChip: pLock/bLock commands and AP-gated reads (Figure 7)."""

import pytest

from repro.core.evanesco_chip import EvanescoChip
from repro.flash.chip import ERASED_DATA, ZERO_DATA
from repro.flash.errors import LockedBlockError, LockedPageError
from repro.flash.geometry import small_geometry
from repro.ftl.timing import TimingModel


@pytest.fixture
def chip():
    return EvanescoChip(small_geometry(blocks=4, wordlines=4), seed=1)


class TestPLock:
    def test_locked_page_reads_zeros(self, chip):
        chip.program_page(0, "secret")
        chip.plock(0)
        result = chip.read_page(0)
        assert result.data == ZERO_DATA
        assert result.blocked

    def test_lock_does_not_affect_siblings(self, chip):
        """Figure 8: pAP flags are per page, not per wordline."""
        for offset in range(3):  # LSB/CSB/MSB of WL0
            chip.program_page(offset, f"d{offset}")
        chip.plock(1)
        assert chip.read_page(0).data == "d0"
        assert chip.read_page(1).data == ZERO_DATA
        assert chip.read_page(2).data == "d2"

    def test_lock_commands_return_none(self, chip):
        # cost is the timing model's to decide, not the chip's
        assert chip.plock(0) is None
        assert chip.block_lock(1) is None
        assert chip.erase_block(1) is None

    def test_plock_latency(self):
        # a pLock's latency is charged by the timing model: a cell-only
        # pulse, no channel transfer
        timing = TimingModel(n_channels=1, chips_per_channel=1)
        assert timing.plock(0) == timing.t_plock_us

    def test_plock_counts_stats(self, chip):
        # the chip's record of issued pLocks is its pAP flag state
        chip.plock(0)
        chip.plock(1)
        pages = range(chip.geometry.pages_per_block)
        assert [chip.page_locked(p) for p in pages] == [p in (0, 1) for p in pages]

    def test_plock_records_wordline_disturb(self, chip):
        chip.plock(0)
        chip.plock(1)  # same WL0
        chip.plock(3)  # WL1
        assert chip.blocks[0].wl_disturb_pulses[0] == 2
        assert chip.blocks[0].wl_disturb_pulses[1] == 1

    def test_strict_read_raises(self, chip):
        chip.program_page(0, "x")
        chip.plock(0)
        with pytest.raises(LockedPageError):
            chip.read_page(0, strict=True)

    def test_page_locked_query(self, chip):
        chip.plock(0)
        assert chip.page_locked(0)
        assert not chip.page_locked(1)


class TestBLock:
    def test_block_lock_blocks_every_page(self, chip):
        ppb = chip.geometry.pages_per_block
        for offset in range(ppb):
            chip.program_page(offset, f"d{offset}")
        chip.block_lock(0)
        for offset in range(ppb):
            assert chip.read_page(offset).data == ZERO_DATA

    def test_block_lock_leaves_other_blocks(self, chip):
        chip.program_page(0, "a")
        ppn_b1 = chip.geometry.ppn(1, 0)
        chip.program_page(ppn_b1, "b")
        chip.block_lock(0)
        assert chip.read_page(ppn_b1).data == "b"

    def test_bap_checked_before_pap(self, chip):
        """Figure 7(b): a bLocked block blocks even pAP-enabled pages."""
        chip.program_page(0, "x")
        chip.block_lock(0)
        with pytest.raises(LockedBlockError):
            chip.read_page(0, strict=True)

    def test_block_lock_latency(self):
        # a bLock's latency is charged by the timing model: a cell-only
        # pulse, no channel transfer
        timing = TimingModel(n_channels=1, chips_per_channel=1)
        assert timing.block_lock(0) == timing.t_block_lock_us

    def test_block_lock_counts_stats(self, chip):
        # the chip's record of issued bLocks is its bAP flag state
        chip.block_lock(0)
        blocks = range(chip.geometry.blocks_per_chip)
        assert [chip.block_locked(b) for b in blocks] == [True, False, False, False]

    def test_block_locked_query(self, chip):
        chip.block_lock(2)
        assert chip.block_locked(2)
        assert not chip.block_locked(0)


class TestUnlockViaErase:
    def test_erase_clears_plock(self, chip):
        chip.program_page(0, "x")
        chip.plock(0)
        chip.erase_block(0)
        assert not chip.page_locked(0)
        assert chip.read_page(0).data == ERASED_DATA

    def test_erase_clears_block_lock(self, chip):
        chip.block_lock(0)
        chip.erase_block(0)
        assert not chip.block_locked(0)

    def test_data_destroyed_before_reaccess(self, chip):
        """The security core: unlock implies the data is already erased."""
        chip.program_page(0, "secret")
        chip.plock(0)
        chip.erase_block(0)
        result = chip.read_page(0)
        assert result.data != "secret"

    def test_reprogram_after_erase(self, chip):
        chip.program_page(0, "old")
        chip.block_lock(0)
        chip.erase_block(0)
        chip.program_page(0, "new")
        assert chip.read_page(0).data == "new"


class TestForensics:
    def test_raw_dump_honours_plock(self, chip):
        chip.program_page(0, "keep")
        chip.program_page(1, "gone")
        chip.plock(1)
        dump = chip.raw_dump()
        assert dump[0] == "keep"
        assert 1 not in dump

    def test_raw_dump_honours_block_lock(self, chip):
        chip.program_page(0, "gone")
        ppn_b1 = chip.geometry.ppn(1, 0)
        chip.program_page(ppn_b1, "keep")
        chip.block_lock(0)
        dump = chip.raw_dump()
        assert 0 not in dump
        assert dump[ppn_b1] == "keep"

    def test_locked_page_count(self, chip):
        chip.plock(0)
        chip.plock(5)
        pages = range(chip.geometry.pages_per_block)
        assert [chip.page_locked(p) for p in pages] == [p in (0, 5) for p in pages]


class TestRetentionIntegration:
    def test_lock_stays_disabled_at_system_timescale(self, chip):
        """Simulation times are microseconds; retention flips need days."""
        chip.program_page(0, "x")
        chip.plock(0, now=0.0)
        one_hour_us = 3600.0 * 1e6
        assert chip.page_locked(0, now=one_hour_us)
