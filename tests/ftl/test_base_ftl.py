"""Baseline page-mapped FTL: write path, GC, lazy erase, data integrity."""

import random

import pytest

from repro.flash.block import BlockState
from repro.ftl.base import PageMappedFtl
from repro.ftl.mapping import UNMAPPED
from repro.ftl.page_status import PageStatus
from repro.ftl.request import read, trim, write


@pytest.fixture
def ftl(tiny_config):
    return PageMappedFtl(tiny_config)


def fill_random(ftl, writes, seed=0, span=None):
    rng = random.Random(seed)
    span = span or ftl.config.logical_pages
    for _ in range(writes):
        ftl.submit(write(rng.randrange(span)))


class TestWritePath:
    def test_write_maps_lpa(self, ftl):
        ftl.submit(write(3))
        assert ftl.mapped_gppa(3) != UNMAPPED

    def test_write_programs_flash(self, ftl):
        ftl.submit(write(3))
        gppa = ftl.mapped_gppa(3)
        chip_id, ppn = ftl.split_gppa(gppa)
        result = ftl.chips[chip_id].read_page(ppn)
        assert result.data == (3, None, 0)
        assert result.spare["lpa"] == 3

    def test_overwrite_invalidates_old(self, ftl):
        ftl.submit(write(3))
        old = ftl.mapped_gppa(3)
        ftl.submit(write(3))
        assert ftl.mapped_gppa(3) != old
        assert ftl.status.get(old) is PageStatus.INVALID

    def test_baseline_never_tracks_secure(self, ftl):
        ftl.submit(write(3, secure=True))
        assert ftl.status.get(ftl.mapped_gppa(3)) is PageStatus.VALID

    def test_writes_stripe_across_chips(self, ftl):
        for lpa in range(ftl.n_chips):
            ftl.submit(write(lpa))
        chips = {ftl.split_gppa(ftl.mapped_gppa(lpa))[0] for lpa in range(ftl.n_chips)}
        assert len(chips) == ftl.n_chips

    def test_multi_page_request(self, ftl):
        ftl.submit(write(0, npages=5))
        assert ftl.stats.host_writes == 5
        for lpa in range(5):
            assert ftl.mapped_gppa(lpa) != UNMAPPED

    def test_logical_time_ticks(self, ftl):
        ftl.submit(write(0, npages=2))  # 2 x 16 KiB = 8 ticks
        assert ftl.logical_time == 8


class TestReadTrim:
    def test_read_mapped_costs_flash_read(self, ftl):
        ftl.submit(write(0))
        ftl.submit(read(0))
        assert ftl.stats.flash_reads == 1

    def test_read_unmapped_is_free(self, ftl):
        ftl.submit(read(7))
        assert ftl.stats.host_reads == 1
        assert ftl.stats.flash_reads == 0

    def test_trim_unmaps_and_invalidates(self, ftl):
        ftl.submit(write(3))
        gppa = ftl.mapped_gppa(3)
        ftl.submit(trim(3))
        assert ftl.mapped_gppa(3) == UNMAPPED
        assert ftl.status.get(gppa) is PageStatus.INVALID

    def test_trim_unmapped_is_noop(self, ftl):
        ftl.submit(trim(3))
        assert ftl.stats.host_trims == 1


class TestGarbageCollection:
    def test_gc_reclaims_space(self, ftl):
        # hammer a small LPA range far beyond device capacity
        fill_random(ftl, ftl.config.physical_pages * 3, span=32)
        assert ftl.stats.gc_invocations > 0
        assert ftl.stats.flash_erases > 0

    def test_gc_preserves_all_live_data(self, ftl):
        rng = random.Random(1)
        expected = {}
        for i in range(ftl.config.physical_pages * 2):
            lpa = rng.randrange(48)
            ftl.submit(write(lpa))
            expected[lpa] = None
        # verify every mapped LPA reads back its own latest payload
        for lpa in expected:
            gppa = ftl.mapped_gppa(lpa)
            chip_id, ppn = ftl.split_gppa(gppa)
            data = ftl.chips[chip_id].read_page(ppn).data
            assert data[0] == lpa  # payload token carries the LPA

    def test_waf_above_one_under_wide_churn(self, ftl, tiny_config):
        """Random overwrites over a nearly-full space force live copies."""
        span = int(tiny_config.logical_pages * 0.9)
        fill_random(ftl, ftl.config.physical_pages * 3, span=span)
        assert ftl.stats.waf > 1.0

    def test_hot_span_cheaper_than_wide_span(self, tiny_config):
        """A small hot set yields fully-invalid victims (near-free GC);
        wide churn forces live-page copies -- the classic WAF gradient."""
        hot = PageMappedFtl(tiny_config)
        fill_random(hot, tiny_config.physical_pages * 3, span=32)
        wide = PageMappedFtl(tiny_config)
        fill_random(
            wide,
            tiny_config.physical_pages * 3,
            span=int(tiny_config.logical_pages * 0.9),
        )
        assert hot.stats.waf < wide.stats.waf
        assert hot.stats.waf == pytest.approx(1.0, abs=0.15)

    def test_lazy_erase_leaves_pending_victims(self, ftl):
        fill_random(ftl, ftl.config.physical_pages * 2, span=32)
        pending = [
            b
            for chip in ftl.chips
            for b in chip.blocks
            if b.state is BlockState.ERASE_PENDING
        ]
        assert pending, "GC must queue victims for lazy erase"

    def test_gc_move_keeps_the_spare_area(self, ftl):
        def spare(lpa):
            chip_id, ppn = ftl.split_gppa(ftl.mapped_gppa(lpa))
            return ftl.chips[chip_id].read_page(ppn).spare

        span = ftl.config.logical_pages
        for lpa in range(span):
            ftl.submit(write(lpa, tag=f"file-{lpa}"))
        before = {lpa: (ftl.mapped_gppa(lpa), spare(lpa)) for lpa in range(span)}
        fill_random(ftl, ftl.config.physical_pages, span=span)
        # same version (seq), new address: GC copied the page
        moved = [
            lpa
            for lpa, (gppa, old) in before.items()
            if ftl.mapped_gppa(lpa) != gppa and spare(lpa)["seq"] == old["seq"]
        ]
        assert moved and ftl.stats.gc_copies > 0
        for lpa in moved:
            assert spare(lpa) == before[lpa][1]
            assert spare(lpa)["tag"] == f"file-{lpa}"

    def test_gc_stats_consistency(self, ftl):
        fill_random(ftl, ftl.config.physical_pages * 2, span=32)
        s = ftl.stats
        assert s.flash_programs == s.host_writes + s.gc_copies


class TestInvariants:
    def test_l2p_and_status_agree_after_churn(self, ftl):
        fill_random(ftl, ftl.config.physical_pages * 2, seed=3, span=40)
        live = 0
        for lpa in range(ftl.config.logical_pages):
            gppa = ftl.mapped_gppa(lpa)
            if gppa == UNMAPPED:
                continue
            live += 1
            assert ftl.status.get(gppa) in (PageStatus.VALID, PageStatus.SECURED)
            assert ftl.l2p.reverse(gppa) == lpa
        counts = ftl.status.counts()
        assert counts[PageStatus.VALID] + counts[PageStatus.SECURED] == live

    def test_capacity_never_exceeded(self, ftl):
        fill_random(ftl, ftl.config.physical_pages * 3, seed=4, span=48)
        counts = ftl.status.counts()
        total = sum(counts.values())
        assert total == ftl.config.physical_pages
