"""SSD device facade."""

import pytest

from repro.ftl.request import read, trim, write
from repro.ssd.device import SSD


class TestConstruction:
    def test_all_variants_construct(self, tiny_config):
        for variant in ("baseline", "secSSD", "secSSD_nobLock", "erSSD", "scrSSD"):
            ssd = SSD(tiny_config, variant)
            assert ssd.variant == variant
            assert ssd.ftl.name == variant

    def test_unknown_variant_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="unknown variant"):
            SSD(tiny_config, "fancySSD")


class TestReplay:
    def test_replay_accumulates_stats(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        result = ssd.replay([write(0), write(1), read(0), trim(1)])
        assert result.stats.host_writes == 2
        assert result.stats.host_reads == 1
        assert result.stats.host_trims == 1
        assert result.iops > 0

    def test_result_extra_fields(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        result = ssd.replay([write(0)])
        assert result.extra == {}  # only a resumed campaign fills it
        assert ssd.ftl.logical_time == 4  # 16 KiB = four 4-KiB ticks

    def test_raw_dump_passthrough(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        ssd.submit(write(0))
        assert len(ssd.raw_dump()) == 1

    def test_logical_pages_property(self, tiny_config):
        assert SSD(tiny_config, "baseline").logical_pages == tiny_config.logical_pages
