"""P/E exhaustion, wear leveling, wear-aware allocation, wear coupling.

The device-aging subsystem's unit surface: ``pe_limit`` boundary
semantics on :class:`~repro.flash.block.Block`, the FTL's
scrub-then-retire handling of :class:`~repro.flash.errors.WearOutError`,
the normalized ``wear-aware`` GC tie-break, static wear leveling,
wear-aware dynamic allocation, and the :class:`~repro.flash.wear.
WearReadGate` coupling (off by default, deterministic when on).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.flash.block import Block, BlockState
from repro.flash.errors import UncorrectableError, WearOutError
from repro.flash.geometry import CellType, Geometry
from repro.flash.wear import WearReadGate
from repro.ftl.allocator import BlockAllocator, OutOfBlocksError
from repro.ftl.base import PageMappedFtl
from repro.ftl.gc_policies import (
    WEAR_TIEBREAK_CAP,
    VictimView,
    wear_aware_greedy,
)
from repro.ftl.request import read, write
from repro.ssd.config import scaled_config


def one_block_geometry() -> Geometry:
    return Geometry(
        blocks_per_chip=1,
        wordlines_per_block=1,
        cell_type=CellType.TLC,
        page_size_bytes=16 * 1024,
        cells_per_wordline=64,
    )


def wear_config(pe_limit, **kw):
    """The smallest device that survives full-span random traffic."""
    return dataclasses.replace(
        scaled_config(
            blocks_per_chip=16, wordlines_per_block=4, pe_limit=pe_limit, **kw
        ),
        n_channels=1,
        chips_per_channel=2,
    )


def fill_random(ftl, writes, seed=0, span=None):
    rng = random.Random(seed)
    span = span or ftl.config.logical_pages
    for _ in range(writes):
        ftl.submit(write(rng.randrange(span)))


def fill_hot_cold(ftl, writes, seed=0):
    """Fill once, then hammer a hot tenth: pins cold blocks at low wear."""
    rng = random.Random(seed)
    span = ftl.config.logical_pages
    hot = span // 10
    for lpa in range(span):
        ftl.submit(write(lpa))
    for _ in range(writes):
        if rng.random() < 0.95:
            ftl.submit(write(rng.randrange(hot)))
        else:
            ftl.submit(write(hot + rng.randrange(span - hot)))


def erase_counts(ftl):
    return [b.erase_count for chip in ftl.chips for b in chip.blocks]


class TestPeLimitBoundary:
    """``erase_count >= pe_limit`` refuses; the limit-th erase succeeds."""

    def test_block_erases_exactly_pe_limit_times(self):
        block = Block(one_block_geometry(), index=0, pe_limit=3)
        for _ in range(3):
            block.erase(0.0)
        assert block.erase_count == 3
        with pytest.raises(WearOutError):
            block.erase(0.0)

    def test_wearout_raises_before_any_mutation(self):
        block = Block(one_block_geometry(), index=0, pe_limit=1)
        block.erase(0.0)
        for offset in range(3):
            block.program(offset, f"v{offset}", None, 0.0)
        with pytest.raises(WearOutError):
            block.erase(0.0)
        # the refused erase left data and counters untouched
        assert block.erase_count == 1
        assert block.data[0] == "v0"

    def test_no_limit_means_unbounded(self):
        block = Block(one_block_geometry(), index=0)
        for _ in range(WEAR_TIEBREAK_CAP // 100_000):
            block.erase(0.0)

    def test_config_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            wear_config(pe_limit=0)


class TestWearOutRetirement:
    """P/E exhaustion funnels into the scrub-then-retire grown-bad flow."""

    @pytest.fixture
    def worn(self):
        """Write through the first wear-outs; tolerate end-of-life.

        Uniform traffic wears every block in near-lockstep, so the
        first WearOutError and pool exhaustion arrive close together
        (the death spiral the aging campaigns stop ahead of with
        ``first-wearout``); the retirement bookkeeping must be sound
        either way.
        """
        ftl = PageMappedFtl(wear_config(pe_limit=5))
        rng = random.Random(0)
        span = ftl.config.logical_pages
        try:
            for _ in range(50_000):
                ftl.submit(write(rng.randrange(span)))
                if ftl.stats.worn_out_blocks >= 2:
                    break
        except OutOfBlocksError:
            pass
        assert ftl.stats.worn_out_blocks >= 2
        return ftl

    def test_worn_blocks_are_retired_grown_bad(self, worn):
        retired = [
            (chip_id, block.index)
            for chip_id, chip in enumerate(worn.chips)
            for block in chip.blocks
            if block.state is BlockState.RETIRED
        ]
        assert len(retired) >= worn.stats.worn_out_blocks
        assert worn.stats.grown_bad_blocks >= worn.stats.worn_out_blocks
        for chip_id, index in retired:
            assert index in worn.alloc.retired_blocks(chip_id)

    def test_first_wearout_write_mark_is_recorded(self, worn):
        mark = worn.stats.host_writes_at_first_wearout
        assert 0 < mark <= worn.stats.host_writes

    def test_reads_stay_serviceable_after_wearout(self, worn):
        # the read path allocates nothing: even a write-dead device
        # still serves every mapped LPA (under the sanitizer fixture)
        rng = random.Random(99)
        for lpa in rng.sample(range(worn.config.logical_pages), 50):
            worn.submit(read(lpa))

    def test_fresh_device_records_no_wearout(self):
        ftl = PageMappedFtl(wear_config(pe_limit=None))
        fill_random(ftl, 500)
        assert ftl.stats.worn_out_blocks == 0
        assert ftl.stats.host_writes_at_first_wearout == -1

    def test_exhausting_every_block_dies_cleanly(self):
        ftl = PageMappedFtl(wear_config(pe_limit=2))
        with pytest.raises(OutOfBlocksError):
            fill_random(ftl, 50_000)


class TestWearAwareGreedyNormalization:
    """The tie-break term must never outvote a whole invalid page."""

    def view(self, invalid, erase_count, pe_limit=None):
        return VictimView(
            global_block=0,
            invalid_pages=invalid,
            live_pages=12 - invalid,
            pages_per_block=12,
            erase_count=erase_count,
            last_program_seq=0,
            now_seq=100,
            pe_limit=pe_limit,
        )

    @pytest.mark.parametrize("erase_count", [0, 999, 10**9, 10**15])
    def test_one_page_beats_any_wear_gap(self, erase_count):
        more_invalid = self.view(5, erase_count)
        less_invalid = self.view(4, 0)
        assert wear_aware_greedy(more_invalid) > wear_aware_greedy(less_invalid)

    @pytest.mark.parametrize("pe_limit", [1, 25, 10**6])
    def test_tie_term_stays_below_one_page_under_any_limit(self, pe_limit):
        # worst case: erase counts at (or absurdly beyond) the limit
        worst = self.view(5, 10**12, pe_limit=pe_limit)
        fresh = self.view(5, 0, pe_limit=pe_limit)
        gap = wear_aware_greedy(fresh) - wear_aware_greedy(worst)
        assert 0.0 < gap < 1.0

    def test_ties_break_toward_low_wear(self):
        worn = self.view(5, 10, pe_limit=25)
        fresh = self.view(5, 1, pe_limit=25)
        assert wear_aware_greedy(fresh) > wear_aware_greedy(worn)


class TestStaticWearLeveling:
    def test_threshold_triggers_migrations(self):
        ftl = PageMappedFtl(
            wear_config(pe_limit=None, wear_leveling_threshold=4)
        )
        fill_hot_cold(ftl, 2000)
        assert ftl.stats.wear_levelings > 0
        assert ftl.stats.wear_level_copies > 0

    def test_leveling_lifts_the_wear_floor(self):
        """Pinned cold blocks rejoin circulation: min wear rises, the
        max-min spread collapses, and the peak does not get worse."""
        plain = PageMappedFtl(wear_config(pe_limit=None))
        leveled = PageMappedFtl(
            wear_config(pe_limit=None, wear_leveling_threshold=4)
        )
        fill_hot_cold(plain, 2000)
        fill_hot_cold(leveled, 2000)
        before, after = erase_counts(plain), erase_counts(leveled)
        assert min(after) > min(before)
        assert max(after) - min(after) < max(before) - min(before)
        assert max(after) <= max(before)

    def test_disabled_by_default(self):
        ftl = PageMappedFtl(wear_config(pe_limit=None))
        fill_hot_cold(ftl, 2000)
        assert ftl.stats.wear_levelings == 0


class TestWearAwareAllocation:
    def test_allocator_opens_least_worn_block(self):
        alloc = BlockAllocator(1, 4, 4)
        wear = {0: 9, 1: 2, 2: 7, 3: 2}
        alloc.wear_fn = lambda chip_id, block: wear[block]
        block, offset, erase = alloc.allocate_page(0)
        assert (block, offset, erase) == (1, 0, None)  # least worn, lowest id

    def test_fifo_without_wear_fn(self):
        alloc = BlockAllocator(1, 4, 4)
        block, _, _ = alloc.allocate_page(0)
        assert block == 0

    def test_config_knob_wires_the_oracle(self):
        ftl = PageMappedFtl(
            wear_config(pe_limit=None, wear_aware_allocation=True)
        )
        assert ftl.alloc.wear_fn is not None
        assert ftl.alloc.wear_fn(0, 0) == ftl.chips[0].blocks[0].erase_count
        fill_random(ftl, 1500)  # integrity under the sanitizer fixture


class TestWearReadGate:
    def test_rber_is_monotonic_in_wear(self):
        gate = WearReadGate.for_cell_type(CellType.TLC)
        samples = [gate.expected_rber(pe) for pe in (0, 500, 1000, 2000)]
        assert samples == sorted(samples)

    def test_gate_trips_past_the_ecc_limit(self):
        gate = WearReadGate.for_cell_type(CellType.TLC)
        assert gate.readable(1000)
        assert not gate.readable(2000)

    def test_check_raises_uncorrectable_with_diagnostics(self):
        gate = WearReadGate.for_cell_type(CellType.TLC)
        block = Block(one_block_geometry(), index=0)
        block.erase_count = 5000
        with pytest.raises(UncorrectableError) as exc:
            gate.check_readable(block, ppn=7)
        assert exc.value.rber > gate.limit_rber

    def test_suspension_nests_and_restores(self):
        gate = WearReadGate.for_cell_type(CellType.TLC)
        block = Block(one_block_geometry(), index=0)
        block.erase_count = 5000
        with gate.suspended():
            with gate.suspended():
                gate.check_readable(block, ppn=0)
            gate.check_readable(block, ppn=0)
        with pytest.raises(UncorrectableError):
            gate.check_readable(block, ppn=0)

    def test_coupling_off_by_default(self):
        ftl = PageMappedFtl(wear_config(pe_limit=None))
        assert ftl.wear_gate is None
        assert all(chip.wear_gate is None for chip in ftl.chips)

    def test_coupling_wires_one_gate_to_every_chip(self):
        ftl = PageMappedFtl(wear_config(pe_limit=None, wear_coupling=True))
        assert ftl.wear_gate is not None
        assert all(chip.wear_gate is ftl.wear_gate for chip in ftl.chips)

    def test_coupling_is_inert_below_the_trip_point(self):
        """Same seed, gate on vs off: identical while wear is low."""
        from repro.sim.runner import simulate_workload

        plain = simulate_workload(
            wear_config(pe_limit=None), "Mobile", "secSSD",
            seed=3, write_multiplier=0.5,
        )
        gated = simulate_workload(
            wear_config(pe_limit=None, wear_coupling=True), "Mobile",
            "secSSD", seed=3, write_multiplier=0.5,
        )
        assert gated.report.to_dict() == plain.report.to_dict()
        assert gated.run.stats == plain.run.stats
