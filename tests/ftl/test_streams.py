"""Write-stream separation (hot/cold) in the allocator and FTL."""

import random

import pytest

from repro.ftl.allocator import BlockAllocator, GC_STREAM, HOST_STREAM
from repro.ftl.base import PageMappedFtl
from repro.ftl.request import write
from repro.ssd.config import SSDConfig


@pytest.fixture
def alloc():
    return BlockAllocator(n_chips=1, blocks_per_chip=6, pages_per_block=4)


class TestStreamAllocator:
    def test_streams_use_distinct_blocks(self, alloc):
        host_block, _, _ = alloc.allocate_page(0, HOST_STREAM)
        gc_block, _, _ = alloc.allocate_page(0, GC_STREAM)
        assert host_block != gc_block

    def test_streams_progress_independently(self, alloc):
        alloc.allocate_page(0, HOST_STREAM)
        alloc.allocate_page(0, HOST_STREAM)
        _, gc_offset, _ = alloc.allocate_page(0, GC_STREAM)
        assert gc_offset == 0

    def test_active_blocks_lists_all_streams(self, alloc):
        alloc.allocate_page(0, HOST_STREAM)
        alloc.allocate_page(0, GC_STREAM)
        assert len(alloc.active_blocks(0)) == 2

    def test_stream_of_block(self, alloc):
        host_block, _, _ = alloc.allocate_page(0, HOST_STREAM)
        gc_block, _, _ = alloc.allocate_page(0, GC_STREAM)
        assert alloc.stream_of_block(0, host_block) == HOST_STREAM
        assert alloc.stream_of_block(0, gc_block) == GC_STREAM
        assert alloc.stream_of_block(0, 5) is None

    def test_close_specific_stream(self, alloc):
        alloc.allocate_page(0, HOST_STREAM)
        gc_block, _, _ = alloc.allocate_page(0, GC_STREAM)
        closed = alloc.close_active(0, GC_STREAM)
        assert closed == gc_block
        assert alloc.active_block(0, HOST_STREAM) is not None
        assert alloc.active_block(0, GC_STREAM) is None

    def test_default_stream_is_host(self, alloc):
        block, _, _ = alloc.allocate_page(0)
        assert alloc.active_block(0) == block
        assert alloc.active_block(0, HOST_STREAM) == block


class TestStreamSeparationInFtl:
    def _make(self, small_geometry, separate):
        return PageMappedFtl(
            SSDConfig(
                n_channels=1,
                chips_per_channel=2,
                geometry=small_geometry,
                overprovision=0.2,
                separate_gc_stream=separate,
            )
        )

    def _churn_skewed(self, ftl, seed=0):
        """90 % of writes hit 20 % of the space (hot/cold mix)."""
        rng = random.Random(seed)
        span = int(ftl.config.logical_pages * 0.85)
        hot = max(1, span // 5)
        for lpa in range(span):
            ftl.submit(write(lpa))
        for _ in range(ftl.config.physical_pages * 3):
            lpa = rng.randrange(hot) if rng.random() < 0.9 else rng.randrange(span)
            ftl.submit(write(lpa))
        return ftl

    def test_gc_stream_keeps_relocations_apart(self, small_geometry):
        ftl = self._make(small_geometry, separate=True)
        self._churn_skewed(ftl)
        assert ftl.stats.gc_copies > 0  # GC actually ran through the stream

    def test_separation_waf_stays_comparable(self, small_geometry):
        """Hot/cold separation is roughly WAF-neutral here: under strong
        skew, greedy GC already self-segregates (hot blocks die fully
        before selection), and the second open block per chip eats into
        the small reserve.  The mechanism must not *break* anything --
        the FTL stays correct and WAF stays in the same regime."""
        mixed = self._churn_skewed(self._make(small_geometry, separate=False))
        split = self._churn_skewed(self._make(small_geometry, separate=True))
        assert split.stats.waf <= mixed.stats.waf * 1.5
        assert split.stats.waf >= 1.0

    def test_data_integrity_with_streams(self, small_geometry):
        ftl = self._churn_skewed(self._make(small_geometry, separate=True), seed=2)
        for lpa in range(int(ftl.config.logical_pages * 0.85)):
            gppa = ftl.mapped_gppa(lpa)
            if gppa < 0:
                continue
            chip_id, ppn = ftl.split_gppa(gppa)
            assert ftl.chips[chip_id].read_page(ppn).data[0] == lpa

    def test_all_variants_accept_streams(self, small_geometry):
        from repro.ftl import FTL_VARIANTS

        for name, cls in FTL_VARIANTS.items():
            ftl = cls(
                SSDConfig(
                    n_channels=1,
                    chips_per_channel=2,
                    geometry=small_geometry,
                    overprovision=0.2,
                    separate_gc_stream=True,
                )
            )
            self._churn_skewed(ftl, seed=3)
