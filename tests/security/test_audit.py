"""C1/C2 sanitization auditing across all SSD variants."""

import random

import pytest

from repro.ftl.request import trim, write
from repro.security.audit import SanitizationAuditor, collect_live_versions
from repro.ssd.device import SSD

SANITIZING = ("secSSD", "secSSD_nobLock", "erSSD", "scrSSD")


def churn(ssd, seed=0, span=48, rounds=2):
    rng = random.Random(seed)
    deleted_tags = set()
    for i in range(ssd.config.physical_pages * rounds // 1):
        lpa = rng.randrange(span)
        if rng.random() < 0.05:
            ssd.submit(trim(lpa))
        else:
            ssd.submit(write(lpa, tag=f"file-{lpa % 8}", secure=True))
    # delete files 0 and 1 entirely
    for lpa in range(span):
        if lpa % 8 in (0, 1):
            ssd.submit(trim(lpa))
    deleted_tags = {"file-0", "file-1"}
    return deleted_tags


class TestC1DeletedFiles:
    @pytest.mark.parametrize("variant", SANITIZING)
    def test_sanitizing_variants_pass(self, tiny_config, variant):
        ssd = SSD(tiny_config, variant)
        deleted = churn(ssd)
        report = SanitizationAuditor(ssd).audit_deleted_files(deleted)
        assert report.clean, report.violations[:3]

    def test_baseline_fails(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        deleted = churn(ssd)
        report = SanitizationAuditor(ssd).audit_deleted_files(deleted)
        assert not report.clean

    def test_report_counts(self, tiny_config):
        ssd = SSD(tiny_config, "secSSD")
        deleted = churn(ssd)
        report = SanitizationAuditor(ssd).audit_deleted_files(deleted)
        assert report.checked_files == len(deleted)


class TestC2UpdatedData:
    @pytest.mark.parametrize("variant", SANITIZING)
    def test_sanitizing_variants_pass(self, tiny_config, variant):
        ssd = SSD(tiny_config, variant)
        churn(ssd, seed=1)
        live = collect_live_versions(ssd)
        report = SanitizationAuditor(ssd).audit_updated_lpas(live)
        assert report.clean, report.violations[:3]

    def test_baseline_fails(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        churn(ssd, seed=1)
        live = collect_live_versions(ssd)
        report = SanitizationAuditor(ssd).audit_updated_lpas(live)
        assert not report.clean

    def test_violations_identify_pages(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        ssd.submit(write(0, tag="f", secure=True))
        ssd.submit(write(0, tag="f", secure=True))
        live = collect_live_versions(ssd)
        report = SanitizationAuditor(ssd).audit_updated_lpas(live)
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.condition == "C2"
        assert v.payload[0] == 0


class TestExposure:
    def test_exposure_summary(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        ssd.submit(write(0, tag="a"))
        ssd.submit(write(1, tag="b"))
        summary = SanitizationAuditor(ssd).exposure_summary()
        assert summary["readable_pages"] == 2
        assert summary["distinct_files"] == 2

    def test_secure_device_exposes_less(self, tiny_config):
        base, sec = SSD(tiny_config, "baseline"), SSD(tiny_config, "secSSD")
        for ssd in (base, sec):
            churn(ssd, seed=2)
        exp_base = SanitizationAuditor(base).exposure_summary()
        exp_sec = SanitizationAuditor(sec).exposure_summary()
        assert exp_sec["readable_pages"] < exp_base["readable_pages"]


class TestLiveVersionCollection:
    def test_matches_host_view(self, tiny_config):
        ssd = SSD(tiny_config, "secSSD")
        ssd.submit(write(3, tag="f", secure=True))
        ssd.submit(write(3, tag="f", secure=True))
        live = collect_live_versions(ssd)
        assert set(live) == {3}
        assert live[3][0] == 3
