"""Per-request work accounting and sanitization tails."""

import random

import pytest

from repro.analysis.latency import request_work
from repro.ftl.request import RequestOp, read, trim, write
from repro.ssd.device import SSD
from repro.telemetry.histogram import SampleLog, percentile


def work_log() -> SampleLog:
    """An empty log of the kind :func:`request_work` returns."""
    return SampleLog(RequestOp)


def p99(log, op=RequestOp.WRITE):
    return log.summary_for(op)["p99_us"]


class TestWorkLogMechanics:
    def test_empty_log(self):
        log = work_log()
        assert log.count() == 0
        assert log.summary_for(None)["p99_us"] == 0.0
        assert log.summary_for(None)["mean_us"] == 0.0

    def test_record_and_select(self):
        log = work_log()
        log.add(RequestOp.WRITE, 10.0)
        log.add(RequestOp.READ, 2.0)
        assert log.count() == 2
        assert log.count(RequestOp.WRITE) == 1
        assert log.summary_for(RequestOp.READ)["mean_us"] == 2.0

    def test_percentiles(self):
        log = work_log()
        for v in range(1, 101):
            log.add(RequestOp.WRITE, float(v))
        summary = log.summary_for(RequestOp.WRITE)
        assert summary["p50_us"] == pytest.approx(50.0, abs=1)
        assert summary["p99_us"] == pytest.approx(99.0, abs=1)
        assert summary["max_us"] == 100.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError, match="negative"):
            work_log().add(RequestOp.WRITE, -1.0)

    def test_summary_keys(self):
        log = work_log()
        log.add(RequestOp.TRIM, 1.0)
        summary = log.summary_for(None)
        assert {"count", "mean_us", "p50_us", "p99_us", "max_us"} <= set(summary)

    def test_summary_matches_per_statistic_methods(self):
        # every field reads what the shared nearest-rank math gives on
        # the selected samples; None selects every class
        rng = random.Random(7)
        log = work_log()
        for _ in range(500):
            log.add(rng.choice(list(RequestOp)), rng.uniform(0.0, 1e4) / 3.0)
        for op in (None, *RequestOp):
            data = sorted(
                v
                for key, values in log.samples.items()
                if op is None or key is op
                for v in values
            )
            summary = log.summary_for(op)
            assert summary["count"] == float(log.count(op)) == len(data)
            assert summary["mean_us"] == pytest.approx(sum(data) / len(data))
            assert summary["p50_us"] == percentile(data, 50)
            assert summary["p99_us"] == percentile(data, 99)
            assert summary["max_us"] == data[-1]
        assert all(v == 0.0 for v in work_log().summary_for(None).values())


class TestDeviceIntegration:
    def test_write_work_includes_program_and_transfer(self, tiny_config):
        log = request_work(SSD(tiny_config, "baseline"), [write(0)])
        work = log.summary_for(RequestOp.WRITE)["max_us"]
        assert work == pytest.approx(
            tiny_config.t_prog_us + tiny_config.t_xfer_us
        )

    def test_read_cheaper_than_write(self, tiny_config):
        log = request_work(SSD(tiny_config, "baseline"), [write(0), read(0)])
        mean = lambda op: log.summary_for(op)["mean_us"]
        assert mean(RequestOp.READ) < mean(RequestOp.WRITE)

    def test_trim_on_baseline_is_free(self, tiny_config):
        log = request_work(SSD(tiny_config, "baseline"), [write(0), trim(0)])
        assert log.summary_for(RequestOp.TRIM)["max_us"] == 0.0

    def test_secure_trim_costs_one_plock(self, tiny_config):
        log = request_work(
            SSD(tiny_config, "secSSD"), [write(0, secure=True), trim(0)]
        )
        assert log.summary_for(RequestOp.TRIM)["max_us"] == pytest.approx(
            tiny_config.t_plock_us
        )


class TestSanitizationTails:
    def _churn(self, variant, config, seed=0):
        rng = random.Random(seed)
        span = int(config.logical_pages * 0.7)
        return request_work(
            SSD(config, variant),
            [
                write(rng.randrange(span), secure=True)
                for _ in range(config.physical_pages)
            ],
        )

    def test_erssd_has_catastrophic_write_tails(self, tiny_config):
        """One secured overwrite can cost a whole block of relocations."""
        er = self._churn("erSSD", tiny_config)
        sec = self._churn("secSSD", tiny_config)
        assert p99(er) > 5 * p99(sec)

    def test_secssd_tail_close_to_baseline(self, tiny_config):
        base = self._churn("baseline", tiny_config)
        sec = self._churn("secSSD", tiny_config)
        ratio = p99(sec) / max(p99(base), 1.0)
        assert ratio < 1.6

    def test_scrssd_tail_in_between(self, tiny_config):
        scr = self._churn("scrSSD", tiny_config)
        sec = self._churn("secSSD", tiny_config)
        er = self._churn("erSSD", tiny_config)
        assert p99(sec) < p99(scr) < p99(er)
