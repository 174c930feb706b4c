"""erSSD: relocate-and-erase immediate sanitization."""

import random

import pytest

from repro.ftl.erase_based import EraseBasedFtl
from repro.ftl.mapping import UNMAPPED
from repro.ssd.request import trim, write


@pytest.fixture
def ftl(tiny_config):
    return EraseBasedFtl(tiny_config)


class TestImmediateErase:
    def test_update_erases_block_immediately(self, ftl):
        ftl.submit(write(0, secure=True))
        old = ftl.mapped_gppa(0)
        chip_id, ppn = ftl.split_gppa(old)
        block_index = ftl.geometry.split_ppn(ppn)[0]
        ftl.submit(write(0, secure=True))
        # the old block is physically erased -- no data survives there
        block = ftl.chips[chip_id].blocks[block_index]
        assert ftl.stats.sanitize_erases >= 1
        assert all(
            offset >= block.next_page or data is None or data[0] != 0
            for offset, data in enumerate(block.data)
            if data != (0, None, 0)
        )
        assert (0, None, 0) not in ftl.raw_device_dump().values()

    def test_erase_relocates_live_neighbours(self, ftl):
        """Live pages sharing the victim block must survive the erase."""
        for lpa in range(8):
            ftl.submit(write(lpa, secure=True))
        ftl.submit(trim(0))
        for lpa in range(1, 8):
            gppa = ftl.mapped_gppa(lpa)
            assert gppa != UNMAPPED
            chip_id, ppn = ftl.split_gppa(gppa)
            data = ftl.chips[chip_id].read_page(ppn).data
            assert data[0] == lpa
        assert ftl.stats.relocation_copies > 0

    def test_insecure_invalidation_does_not_erase(self, ftl):
        ftl.submit(write(0, secure=False))
        ftl.submit(write(0, secure=False))
        assert ftl.stats.sanitize_erases == 0

    def test_active_block_can_be_sanitized(self, ftl):
        """Overwriting data whose stale copy sits in the open block."""
        ftl.submit(write(0, secure=True))
        ftl.submit(write(0, secure=True))  # old copy is in the active block
        ftl.submit(write(1, secure=True))  # device still functional
        assert ftl.mapped_gppa(1) != UNMAPPED


class TestCosts:
    def test_waf_explodes_relative_to_block_size(self, ftl, tiny_config):
        rng = random.Random(0)
        span = int(tiny_config.logical_pages * 0.8)
        for _ in range(span * 2):
            ftl.submit(write(rng.randrange(span), secure=True))
        # every secured overwrite triggers a block relocation storm
        assert ftl.stats.waf > 5.0
        assert ftl.stats.flash_erases > span / 2

    def test_gc_erases_eagerly(self, ftl):
        """erSSD victims never sit in the lazy-erase queue (footnote 15)."""
        rng = random.Random(0)
        for _ in range(ftl.config.physical_pages):
            ftl.submit(write(rng.randrange(64), secure=True))
        assert not ftl._pending_victims


class TestSanitizationGuarantee:
    def test_no_stale_versions_recoverable(self, ftl):
        for _ in range(4):
            ftl.submit(write(3, secure=True))
        versions = [
            v
            for v in ftl.raw_device_dump().values()
            if isinstance(v, tuple) and v[0] == 3
        ]
        assert len(versions) == 1

    def test_deleted_file_unrecoverable(self, ftl):
        ftl.submit(write(9, secure=True, tag="f"))
        ftl.submit(trim(9))
        assert not any(
            isinstance(v, tuple) and v[1] == "f"
            for v in ftl.raw_device_dump().values()
        )
