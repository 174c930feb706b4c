"""Scorecard measurement collection (chip-level subset for speed)."""

import pytest

from repro.analysis.paper_targets import evaluate
from repro.analysis.scorecard import (
    collect_chip_measurements,
    collect_system_measurements,
)
from repro.ssd.config import scaled_config


@pytest.fixture(scope="module")
def chip_measurements():
    return collect_chip_measurements()


class TestChipMeasurements:
    def test_all_chip_level_targets_covered(self, chip_measurements):
        experiments = {exp for exp, _ in chip_measurements}
        assert experiments == {"fig9", "fig12", "fig6", "fig10", "fig11b", "sec5.5"}

    def test_all_chip_level_targets_pass(self, chip_measurements):
        checks = evaluate(chip_measurements)
        assert checks
        failed = [c for c in checks if not c.passed]
        assert not failed, [
            (c.target.experiment, c.target.metric, c.measured) for c in failed
        ]


class TestSystemMeasurements:
    def test_mini_system_sweep(self):
        """A tiny device still yields all system-level keys (bands may be
        looser than the official bench config, so only structure is
        asserted here).  Two chips on one channel keep each chip's
        12x8 geometry and the write multiplier at a quarter of the work."""
        config = scaled_config(
            blocks_per_chip=12,
            wordlines_per_block=8,
            n_channels=1,
            chips_per_channel=2,
        )
        m = collect_system_measurements(config, write_multiplier=0.5)
        assert ("fig14a", "secssd_norm_iops_avg") in m
        assert ("headline", "iops_vs_scrssd_avg") in m
        assert ("fig14c", "gap_at_60pct_secure_max") in m
        assert 0.0 <= m[("fig14a", "secssd_norm_iops_avg")] <= 1.05
