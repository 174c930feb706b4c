"""scrSSD: wordline scrubbing with sibling relocation."""

import random

import pytest

from repro.flash.chip import SCRUBBED_DATA
from repro.ftl.mapping import UNMAPPED
from repro.ftl.request import trim, write
from repro.ftl.scrub_based import ScrubBasedFtl


@pytest.fixture
def ftl(tiny_config):
    return ScrubBasedFtl(tiny_config)


class TestScrubOnInvalidate:
    def test_update_scrubs_old_wordline(self, ftl):
        ftl.submit(write(0, secure=True))
        old = ftl.mapped_gppa(0)
        chip_id, ppn = ftl.split_gppa(old)
        ftl.submit(write(0, secure=True))
        assert ftl.stats.scrubs >= 1
        assert ftl.chips[chip_id].read_page(ppn).data == SCRUBBED_DATA

    def test_stale_data_not_recoverable(self, ftl):
        ftl.submit(write(0, secure=True))
        ftl.submit(write(0, secure=True))
        versions = [
            v
            for v in ftl.raw_device_dump().values()
            if isinstance(v, tuple) and v[0] == 0
        ]
        assert len(versions) == 1

    def test_siblings_relocated_not_lost(self, ftl):
        """Valid pages of the scrubbed wordline move before the pulse."""
        for lpa in range(12):
            ftl.submit(write(lpa, secure=True))
        ftl.submit(trim(4))
        for lpa in range(12):
            if lpa == 4:
                continue
            gppa = ftl.mapped_gppa(lpa)
            assert gppa != UNMAPPED
            chip_id, ppn = ftl.split_gppa(gppa)
            assert ftl.chips[chip_id].read_page(ppn).data[0] == lpa

    def test_insecure_invalidation_not_scrubbed(self, ftl):
        ftl.submit(write(0, secure=False))
        ftl.submit(write(0, secure=False))
        assert ftl.stats.scrubs == 0

    def test_one_scrub_per_wordline_per_batch(self, ftl, tiny_config):
        """Trimming all three sibling pages costs a single scrub pulse."""
        ppw = tiny_config.geometry.pages_per_wordline
        n = tiny_config.n_chips * ppw
        for lpa in range(n):
            ftl.submit(write(lpa, secure=True))
        before = ftl.stats.scrubs
        ftl.submit(trim(0, npages=n))
        per_chip_wordlines = ftl.stats.scrubs - before
        assert per_chip_wordlines <= tiny_config.n_chips


class TestRelocationCosts:
    def test_waf_above_baseline(self, ftl, tiny_config):
        rng = random.Random(0)
        span = int(tiny_config.logical_pages * 0.5)
        for _ in range(span * 3):
            ftl.submit(write(rng.randrange(span), secure=True))
        assert ftl.stats.relocation_copies > 0
        assert 1.0 < ftl.stats.waf < 15.0

    def test_padding_keeps_program_order(self, ftl):
        """Scrubbing inside the open block pads its unwritten tail pages --
        without tripping the chips' program-order checks."""
        ftl.submit(write(0, secure=True))
        # old copy of LPA 0 lands at the very start of a fresh block;
        # overwriting immediately scrubs a wordline in the open block
        ftl.submit(write(0, secure=True))
        ftl.submit(write(1, secure=True))
        assert ftl.mapped_gppa(1) != UNMAPPED

    def test_gc_victim_wordlines_scrubbed_without_relocation(self, ftl, tiny_config):
        rng = random.Random(1)
        span = int(tiny_config.logical_pages * 0.8)
        for _ in range(tiny_config.physical_pages * 2):
            ftl.submit(write(rng.randrange(span), secure=True))
        assert ftl.stats.gc_invocations > 0
        assert ftl.stats.scrubs > 0


class TestDeviceStaysFunctional:
    def test_long_churn_preserves_live_data(self, ftl, tiny_config):
        rng = random.Random(3)
        span = int(tiny_config.logical_pages * 0.6)
        for _ in range(tiny_config.physical_pages * 2):
            ftl.submit(write(rng.randrange(span), secure=True))
        for lpa in range(span):
            gppa = ftl.mapped_gppa(lpa)
            if gppa == UNMAPPED:
                continue
            chip_id, ppn = ftl.split_gppa(gppa)
            data = ftl.chips[chip_id].read_page(ppn).data
            assert data != SCRUBBED_DATA
            assert data[0] == lpa
