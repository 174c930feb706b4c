"""GC victim-selection policies."""

import random

import pytest

from repro.ftl.base import PageMappedFtl
from repro.ftl.gc_policies import (
    GC_POLICIES,
    VictimView,
    cost_benefit,
    fifo,
    greedy,
    policy_by_name,
    wear_aware_greedy,
)
from repro.ftl.request import write
from repro.ssd.config import SSDConfig


def view(invalid=5, live=5, ppb=10, erases=0, last=0, now=100):
    return VictimView(
        global_block=0,
        invalid_pages=invalid,
        live_pages=live,
        pages_per_block=ppb,
        erase_count=erases,
        last_program_seq=last,
        now_seq=now,
    )


class TestPolicyFunctions:
    def test_greedy_prefers_more_invalid(self):
        assert greedy(view(invalid=8)) > greedy(view(invalid=3))

    def test_greedy_ignores_age(self):
        assert greedy(view(last=0)) == greedy(view(last=90))

    def test_cost_benefit_prefers_emptier(self):
        assert cost_benefit(view(live=1)) > cost_benefit(view(live=9))

    def test_cost_benefit_prefers_older_at_equal_utilization(self):
        assert cost_benefit(view(last=0)) > cost_benefit(view(last=90))

    def test_cost_benefit_rejects_full_block(self):
        assert cost_benefit(view(live=10, invalid=0)) < 0

    def test_fifo_is_pure_age(self):
        assert fifo(view(last=0)) > fifo(view(last=50))
        assert fifo(view(invalid=1, last=0)) == fifo(view(invalid=9, last=0))

    def test_wear_aware_prefers_less_worn_on_tie(self):
        fresh = wear_aware_greedy(view(invalid=5, erases=1))
        worn = wear_aware_greedy(view(invalid=5, erases=500))
        assert fresh > worn

    def test_wear_aware_never_outweighs_a_page(self):
        worn_more_invalid = wear_aware_greedy(view(invalid=6, erases=999))
        fresh_less_invalid = wear_aware_greedy(view(invalid=5, erases=0))
        assert worn_more_invalid > fresh_less_invalid

    def test_view_properties(self):
        v = view(invalid=3, live=7, ppb=10, last=40, now=100)
        assert v.utilization == pytest.approx(0.7)
        assert v.age == 60.0


class TestRegistry:
    def test_policy_by_name(self):
        for name in GC_POLICIES:
            assert callable(policy_by_name(name))

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown GC policy"):
            policy_by_name("magic")

    def test_config_validates_policy(self, small_geometry):
        with pytest.raises(ValueError):
            SSDConfig(geometry=small_geometry, gc_policy="magic")


class TestPoliciesInTheFtl:
    def _churn(self, ftl, seed=0):
        rng = random.Random(seed)
        span = int(ftl.config.logical_pages * 0.85)
        for _ in range(ftl.config.physical_pages * 3):
            ftl.submit(write(rng.randrange(span)))
        return ftl

    @pytest.mark.parametrize("policy", sorted(GC_POLICIES))
    def test_all_policies_make_progress(self, small_geometry, policy):
        cfg = SSDConfig(
            n_channels=1,
            chips_per_channel=2,
            geometry=small_geometry,
            overprovision=0.2,
            gc_policy=policy,
        )
        ftl = self._churn(PageMappedFtl(cfg))
        assert ftl.stats.gc_invocations > 0
        assert ftl.stats.flash_erases > 0

    def test_greedy_beats_fifo_on_waf(self, small_geometry):
        """Liveness-blind FIFO must copy more than greedy."""

        def waf(policy):
            cfg = SSDConfig(
                n_channels=1,
                chips_per_channel=2,
                geometry=small_geometry,
                overprovision=0.2,
                gc_policy=policy,
            )
            return self._churn(PageMappedFtl(cfg)).stats.waf

        assert waf("greedy") <= waf("fifo")

    def test_wear_aware_levels_wear(self, small_geometry):
        """Skewed traffic: wear-aware spreads erases more evenly."""
        from repro.analysis.lifetime import WearStats

        def wear_cv(policy):
            cfg = SSDConfig(
                n_channels=1,
                chips_per_channel=2,
                geometry=small_geometry,
                overprovision=0.2,
                gc_policy=policy,
            )
            ftl = PageMappedFtl(cfg)
            rng = random.Random(1)
            # hot/cold split: 90 % of writes to 20 % of the space
            span = int(cfg.logical_pages * 0.85)
            hot = max(1, span // 5)
            for lpa in range(span):
                ftl.submit(write(lpa))
            for _ in range(cfg.physical_pages * 3):
                lpa = rng.randrange(hot) if rng.random() < 0.9 else rng.randrange(span)
                ftl.submit(write(lpa))
            return WearStats.from_ftl(ftl).cv

        assert wear_cv("wear-aware") <= wear_cv("greedy") + 0.05
