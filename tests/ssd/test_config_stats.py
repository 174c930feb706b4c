"""SSD configuration and device statistics."""

import pytest

from repro.flash.geometry import Geometry
from repro.ftl.stats import DeviceStats, RunResult
from repro.ssd.config import SSDConfig, paper_config, scaled_config


class TestPaperConfig:
    def test_topology(self):
        cfg = paper_config()
        assert cfg.n_channels == 2
        assert cfg.chips_per_channel == 4
        assert cfg.n_chips == 8

    def test_capacity_32gib_physical(self):
        cfg = paper_config()
        assert cfg.physical_bytes == 8 * 428 * 576 * 16 * 1024  # ~31.6 GiB

    def test_timing_constants(self):
        cfg = paper_config()
        assert cfg.t_read_us == 80.0
        assert cfg.t_prog_us == 700.0
        assert cfg.t_erase_us == 3500.0
        assert cfg.t_plock_us == 100.0
        assert cfg.t_block_lock_us == 300.0

    def test_logical_smaller_than_physical(self):
        cfg = paper_config()
        assert cfg.logical_pages < cfg.physical_pages


class TestScaledConfig:
    def test_same_topology(self):
        cfg = scaled_config()
        assert (cfg.n_channels, cfg.chips_per_channel) == (2, 4)

    def test_custom_dimensions(self):
        cfg = scaled_config(blocks_per_chip=10, wordlines_per_block=4)
        assert cfg.geometry.blocks_per_chip == 10
        assert cfg.geometry.pages_per_block == 12


class TestValidation:
    def test_rejects_bad_overprovision(self):
        with pytest.raises(ValueError):
            SSDConfig(overprovision=0.0)
        with pytest.raises(ValueError):
            SSDConfig(overprovision=1.0)

    def test_rejects_too_few_blocks(self):
        with pytest.raises(ValueError):
            SSDConfig(
                geometry=Geometry(blocks_per_chip=4, wordlines_per_block=4),
            )


class TestDeviceStats:
    def test_waf(self):
        stats = DeviceStats(host_writes=100, flash_programs=250)
        assert stats.waf == 2.5

    def test_waf_zero_writes(self):
        assert DeviceStats().waf == 0.0

    def test_iops(self):
        stats = DeviceStats(host_reads=50, host_writes=50)
        assert stats.iops(1e6) == pytest.approx(100.0)

    def test_iops_zero_elapsed(self):
        assert DeviceStats(host_writes=10).iops(0.0) == 0.0

    def test_snapshot_roundtrip(self):
        stats = DeviceStats(host_writes=3, plocks=2, flash_programs=6)
        snap = stats.to_dict()
        assert snap["host_writes"] == 3
        assert snap["plocks"] == 2
        assert snap["host_writes_at_first_wearout"] == -1
        assert stats.waf == 2.0

    def test_to_dict_from_dict_round_trip(self):
        stats = DeviceStats(
            host_writes=3, plocks=2, grown_bad_blocks=1, read_retries=4
        )
        assert DeviceStats.from_dict(stats.to_dict()) == stats

    def test_to_dict_is_lossless_not_a_report(self):
        # the computed WAF is a property, never a serialized field
        fields = DeviceStats().to_dict()
        assert "waf" not in fields
        assert set(fields) == set(DeviceStats.__dataclass_fields__)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown DeviceStats"):
            DeviceStats.from_dict({"host_writes": 1, "bogus": 2})


class TestRunResult:
    def test_normalization(self):
        base = RunResult("baseline", DeviceStats(host_writes=10, flash_programs=10), 1e6)
        other = RunResult("x", DeviceStats(host_writes=10, flash_programs=20), 2e6)
        assert other.normalized_iops(base) == pytest.approx(0.5)
        assert other.normalized_waf(base) == pytest.approx(2.0)

    def test_normalization_rejects_zero_baseline(self):
        base = RunResult("baseline", DeviceStats(), 0.0)
        other = RunResult("x", DeviceStats(host_writes=1), 1.0)
        with pytest.raises(ValueError):
            other.normalized_iops(base)
