"""Per-request work accounting and sanitization tails."""

import random

import pytest

from repro.ssd.device import SSD
from repro.ssd.request import RequestOp, read, trim, write
from repro.ssd.worklog import WorkLog


class TestWorkLogMechanics:
    def test_empty_log(self):
        log = WorkLog()
        assert log.count() == 0
        assert log.percentile(99) == 0.0
        assert log.mean() == 0.0

    def test_record_and_select(self):
        log = WorkLog()
        log.record(RequestOp.WRITE, 10.0)
        log.record(RequestOp.READ, 2.0)
        assert log.count() == 2
        assert log.count(RequestOp.WRITE) == 1
        assert log.mean(RequestOp.READ) == 2.0

    def test_percentiles(self):
        log = WorkLog()
        for v in range(1, 101):
            log.record(RequestOp.WRITE, float(v))
        assert log.percentile(50, RequestOp.WRITE) == pytest.approx(50.0, abs=1)
        assert log.percentile(99, RequestOp.WRITE) == pytest.approx(99.0, abs=1)
        assert log.max(RequestOp.WRITE) == 100.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            WorkLog().percentile(101)

    def test_summary_keys(self):
        log = WorkLog()
        log.record(RequestOp.TRIM, 1.0)
        summary = log.summary()
        assert set(summary) == {"count", "mean_us", "p50_us", "p99_us", "max_us"}

    def test_summary_matches_per_statistic_methods(self):
        # summary() selects and sorts once; every field must still read
        # exactly what the single-statistic methods return, the mean
        # summed in insertion order (so not from the sorted copy)
        rng = random.Random(7)
        log = WorkLog()
        for _ in range(500):
            log.record(rng.choice(list(RequestOp)), rng.uniform(0.0, 1e4) / 3.0)
        for op in (None, *RequestOp):
            assert log.summary(op) == {
                "count": float(log.count(op)),
                "mean_us": log.mean(op),
                "p50_us": log.percentile(50, op),
                "p99_us": log.percentile(99, op),
                "max_us": log.max(op),
            }
        assert WorkLog().summary() == dict.fromkeys(
            ("count", "mean_us", "p50_us", "p99_us", "max_us"), 0.0
        )


class TestDeviceIntegration:
    def test_write_work_includes_program_and_transfer(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        ssd.submit(write(0))
        work = ssd.work_log.max(RequestOp.WRITE)
        assert work == pytest.approx(
            tiny_config.t_prog_us + tiny_config.t_xfer_us
        )

    def test_read_cheaper_than_write(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        ssd.submit(write(0))
        ssd.submit(read(0))
        assert ssd.work_log.mean(RequestOp.READ) < ssd.work_log.mean(
            RequestOp.WRITE
        )

    def test_trim_on_baseline_is_free(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        ssd.submit(write(0))
        ssd.submit(trim(0))
        assert ssd.work_log.max(RequestOp.TRIM) == 0.0

    def test_secure_trim_costs_one_plock(self, tiny_config):
        ssd = SSD(tiny_config, "secSSD")
        ssd.submit(write(0, secure=True))
        ssd.submit(trim(0))
        assert ssd.work_log.max(RequestOp.TRIM) == pytest.approx(
            tiny_config.t_plock_us
        )


class TestSanitizationTails:
    def _churn(self, variant, config, seed=0):
        ssd = SSD(config, variant)
        rng = random.Random(seed)
        span = int(config.logical_pages * 0.7)
        for _ in range(config.physical_pages):
            ssd.submit(write(rng.randrange(span), secure=True))
        return ssd

    def test_erssd_has_catastrophic_write_tails(self, tiny_config):
        """One secured overwrite can cost a whole block of relocations."""
        er = self._churn("erSSD", tiny_config)
        sec = self._churn("secSSD", tiny_config)
        assert er.work_log.percentile(99, RequestOp.WRITE) > 5 * (
            sec.work_log.percentile(99, RequestOp.WRITE)
        )

    def test_secssd_tail_close_to_baseline(self, tiny_config):
        base = self._churn("baseline", tiny_config)
        sec = self._churn("secSSD", tiny_config)
        ratio = sec.work_log.percentile(99, RequestOp.WRITE) / max(
            base.work_log.percentile(99, RequestOp.WRITE), 1.0
        )
        assert ratio < 1.6

    def test_scrssd_tail_in_between(self, tiny_config):
        scr = self._churn("scrSSD", tiny_config)
        sec = self._churn("secSSD", tiny_config)
        er = self._churn("erSSD", tiny_config)
        p99 = lambda ssd: ssd.work_log.percentile(99, RequestOp.WRITE)
        assert p99(sec) < p99(scr) < p99(er)
