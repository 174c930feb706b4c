"""Lifetime / wear analysis."""

import random

import pytest

from repro.analysis.lifetime import LifetimeEstimate, WearStats, erase_reduction
from repro.ftl import FTL_VARIANTS
from repro.ftl.request import write


def churn(variant, config, rounds=3, seed=0, secure=True):
    ftl = FTL_VARIANTS[variant](config)
    rng = random.Random(seed)
    span = int(config.logical_pages * 0.85)
    for _ in range(config.physical_pages * rounds):
        ftl.submit(write(rng.randrange(span), secure=secure))
    return ftl


class TestWearStats:
    def test_fresh_device(self, tiny_config):
        ftl = FTL_VARIANTS["baseline"](tiny_config)
        wear = WearStats.from_ftl(ftl)
        assert wear.total_erases == 0
        assert wear.evenness == 1.0
        assert wear.cv == 0.0

    def test_counts_accumulate(self, tiny_config):
        ftl = churn("baseline", tiny_config)
        wear = WearStats.from_ftl(ftl)
        assert wear.total_erases == ftl.stats.flash_erases
        assert wear.min_erases <= wear.mean_erases <= wear.max_erases

    def test_evenness_bounds(self, tiny_config):
        wear = WearStats.from_ftl(churn("baseline", tiny_config))
        assert 0.0 < wear.evenness <= 1.0


class TestLifetimeEstimate:
    def test_fresh_device_is_unbounded(self, tiny_config):
        ftl = FTL_VARIANTS["baseline"](tiny_config)
        est = LifetimeEstimate.from_ftl(ftl)
        assert est.lifetime_host_pages == float("inf")

    def test_estimate_scales_with_endurance(self, tiny_config):
        ftl = churn("baseline", tiny_config)
        lo = LifetimeEstimate.from_ftl(ftl, endurance_cycles=500)
        hi = LifetimeEstimate.from_ftl(ftl, endurance_cycles=1000)
        assert hi.lifetime_host_pages == pytest.approx(
            2 * lo.lifetime_host_pages
        )

    def test_derating_by_wear_imbalance(self, tiny_config):
        est = LifetimeEstimate.from_ftl(churn("baseline", tiny_config))
        assert est.lifetime_host_pages <= est.lifetime_host_pages_even

    def test_relative_comparison(self, tiny_config):
        base = LifetimeEstimate.from_ftl(churn("baseline", tiny_config))
        same = LifetimeEstimate.from_ftl(churn("baseline", tiny_config))
        assert base.relative_to(same) == pytest.approx(1.0)


class TestPaperLifetimeClaim:
    """Section 1: secSSD greatly reduces erases vs erSSD/scrSSD."""

    def test_secssd_outlives_scrssd(self, tiny_config):
        sec = LifetimeEstimate.from_ftl(churn("secSSD", tiny_config))
        scr = LifetimeEstimate.from_ftl(churn("scrSSD", tiny_config))
        assert sec.relative_to(scr) > 1.5

    def test_secssd_vastly_outlives_erssd(self, tiny_config):
        sec = LifetimeEstimate.from_ftl(churn("secSSD", tiny_config, rounds=1))
        er = LifetimeEstimate.from_ftl(churn("erSSD", tiny_config, rounds=1))
        assert sec.relative_to(er) > 3.0

    def test_erase_reduction_metric(self, tiny_config):
        sec = WearStats.from_ftl(churn("secSSD", tiny_config))
        scr = WearStats.from_ftl(churn("scrSSD", tiny_config))
        red = erase_reduction(sec, scr)
        assert 0.3 < red < 0.95

    def test_secssd_matches_baseline_lifetime(self, tiny_config):
        sec = LifetimeEstimate.from_ftl(churn("secSSD", tiny_config))
        base = LifetimeEstimate.from_ftl(churn("baseline", tiny_config))
        assert sec.relative_to(base) == pytest.approx(1.0, rel=0.1)
