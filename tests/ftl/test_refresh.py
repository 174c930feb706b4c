"""Read-disturb refresh: relocation of heavily-read blocks."""

import pytest

from repro.ftl import FTL_VARIANTS
from repro.ftl.mapping import UNMAPPED
from repro.ftl.request import read, write
from repro.ssd.config import SSDConfig


@pytest.fixture
def refresh_config(small_geometry):
    return SSDConfig(
        n_channels=1,
        chips_per_channel=2,
        geometry=small_geometry,
        overprovision=0.2,
        read_refresh_threshold=50,
    )


def fill_blocks(ftl, lpas):
    """Write enough data to close at least the first blocks."""
    ppb = ftl.geometry.pages_per_block
    for lpa in range(lpas):
        ftl.submit(write(lpa, secure=True))
    return ppb


class TestRefreshTrigger:
    def test_disabled_by_default(self, tiny_config):
        ftl = FTL_VARIANTS["baseline"](tiny_config)
        fill_blocks(ftl, 48)
        for _ in range(500):
            ftl.submit(read(0))
        assert ftl.stats.refreshes == 0

    def test_hot_reads_trigger_refresh(self, refresh_config):
        ftl = FTL_VARIANTS["baseline"](refresh_config)
        fill_blocks(ftl, refresh_config.geometry.pages_per_block * 2)
        old_gppa = ftl.mapped_gppa(0)
        for _ in range(60):
            ftl.submit(read(0))
        assert ftl.stats.refreshes >= 1
        assert ftl.stats.refresh_copies > 0
        # the hot page moved to a fresh location
        assert ftl.mapped_gppa(0) != old_gppa

    def test_refreshed_data_still_readable(self, refresh_config):
        ftl = FTL_VARIANTS["baseline"](refresh_config)
        n = refresh_config.geometry.pages_per_block * 2
        fill_blocks(ftl, n)
        for _ in range(60):
            ftl.submit(read(1))
        for lpa in range(n):
            gppa = ftl.mapped_gppa(lpa)
            assert gppa != UNMAPPED
            chip_id, ppn = ftl.split_gppa(gppa)
            assert ftl.chips[chip_id].read_page(ppn).data[0] == lpa

    def test_counter_resets_after_refresh(self, refresh_config):
        ftl = FTL_VARIANTS["baseline"](refresh_config)
        fill_blocks(ftl, refresh_config.geometry.pages_per_block * 2)
        for _ in range(60):
            ftl.submit(read(0))
        first = ftl.stats.refreshes
        # a handful more reads must not instantly re-trigger
        for _ in range(10):
            ftl.submit(read(0))
        assert ftl.stats.refreshes == first

    def test_open_blocks_not_refreshed(self, refresh_config):
        ftl = FTL_VARIANTS["baseline"](refresh_config)
        ftl.submit(write(0))  # lives in the open block
        for _ in range(200):
            ftl.submit(read(0))
        assert ftl.stats.refreshes == 0


class TestRefreshSanitization:
    def test_secured_copies_locked_on_refresh(self, refresh_config):
        """Section 6: any flash-management move of a secured page must
        sanitize the stale copy -- refresh included."""
        ftl = FTL_VARIANTS["secSSD"](refresh_config)
        fill_blocks(ftl, refresh_config.geometry.pages_per_block * 2)
        locks_before = ftl.stats.plocks + ftl.stats.block_locks
        for _ in range(60):
            ftl.submit(read(0))
        assert ftl.stats.refreshes >= 1
        assert ftl.stats.plocks + ftl.stats.block_locks > locks_before

    def test_no_stale_versions_after_refresh(self, refresh_config):
        ftl = FTL_VARIANTS["secSSD"](refresh_config)
        n = refresh_config.geometry.pages_per_block * 2
        fill_blocks(ftl, n)
        for _ in range(60):
            ftl.submit(read(2))
        dump = ftl.raw_device_dump()
        seen: dict[int, int] = {}
        for payload in dump.values():
            if isinstance(payload, tuple) and len(payload) == 3:
                seen[payload[0]] = seen.get(payload[0], 0) + 1
        assert all(count == 1 for count in seen.values())
