"""Percentiles, latency recording (the engine's ``SampleLog``), and
queue-depth series."""

import pytest

from repro.ftl.request import RequestOp
from repro.sim.metrics import PERCENTILES, DepthSeries, percentile
from repro.telemetry.histogram import SampleLog


class TestPercentile:
    def test_nearest_rank_on_known_data(self):
        data = [float(v) for v in range(1, 101)]  # 1..100
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 50.0) == 50.0  # rank ceil(0.5 * 100) - 1 = 49
        assert percentile(data, 100.0) == 100.0

    def test_single_sample_is_every_percentile(self):
        for _, q in PERCENTILES:
            assert percentile([42.0], q) == 42.0

    def test_empty_data_reports_zero(self):
        assert percentile([], 99.0) == 0.0

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)


class TestLatencyRecorder:
    def test_groups_by_request_class(self):
        rec = SampleLog(RequestOp)
        rec.add(RequestOp.READ, 10.0)
        rec.add(RequestOp.READ, 30.0)
        rec.add(RequestOp.WRITE, 100.0)
        assert rec.count(RequestOp.READ) == 2
        assert rec.count() == 3

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SampleLog(RequestOp).add(RequestOp.READ, -1.0)

    def test_summary_has_every_class_and_all(self):
        rec = SampleLog(RequestOp)
        rec.add(RequestOp.TRIM, 5.0)
        summary = rec.summary()
        assert set(summary) == {op.value for op in RequestOp} | {"all"}
        for stats in summary.values():
            assert set(stats) == {
                "count", "mean_us", "min_us", "max_us"
            } | {label for label, _ in PERCENTILES}

    def test_summary_values(self):
        rec = SampleLog(RequestOp)
        for v in (10.0, 20.0, 30.0, 40.0):
            rec.add(RequestOp.READ, v)
        stats = rec.summary_for(RequestOp.READ)
        assert stats["count"] == 4.0
        assert stats["mean_us"] == 25.0
        assert stats["min_us"] == 10.0
        assert stats["max_us"] == 40.0
        assert stats["p50_us"] == 20.0  # nearest rank ceil(0.5 * 4) - 1 = 1

    def test_empty_class_is_all_zeros(self):
        stats = SampleLog(RequestOp).summary_for(RequestOp.WRITE)
        assert all(v == 0.0 for v in stats.values())

    def test_all_merges_every_class(self):
        rec = SampleLog(RequestOp)
        rec.add(RequestOp.READ, 1.0)
        rec.add(RequestOp.WRITE, 3.0)
        stats = rec.summary_for(None)
        assert stats["count"] == 2.0
        assert stats["mean_us"] == 2.0


class TestDepthSeries:
    def test_coalesces_consecutive_same_level(self):
        series = DepthSeries()
        series.record(0.0, 1)
        series.record(5.0, 1)  # no-op
        series.record(9.0, 2)
        assert list(series.times_us) == [0.0, 9.0]
        assert list(series.levels) == [1, 2]

    def test_same_instant_transition_keeps_final_level(self):
        series = DepthSeries()
        series.record(0.0, 1)
        series.record(4.0, 2)
        series.record(4.0, 3)  # overwrite, not append
        assert list(series.times_us) == [0.0, 4.0]
        assert list(series.levels) == [1, 3]

    def test_same_instant_overwrite_recoalesces(self):
        series = DepthSeries()
        series.record(0.0, 1)
        series.record(4.0, 2)
        series.record(4.0, 1)  # back to the previous level: point vanishes
        assert list(series.times_us) == [0.0]
        assert list(series.levels) == [1]

    def test_peak(self):
        series = DepthSeries()
        assert series.peak == 0
        series.record(0.0, 3)
        series.record(1.0, 7)
        series.record(2.0, 2)
        assert series.peak == 7

    def test_mean_level_time_weighted(self):
        series = DepthSeries()
        series.record(0.0, 2)   # level 2 over [0, 10)
        series.record(10.0, 4)  # level 4 over [10, 20)
        assert series.mean_level(20.0) == pytest.approx(3.0)

    def test_mean_level_empty_or_zero_window(self):
        assert DepthSeries().mean_level(10.0) == 0.0
        series = DepthSeries()
        series.record(0.0, 5)
        assert series.mean_level(0.0) == 0.0

    def test_downsample_preserves_endpoints(self):
        series = DepthSeries()
        for i in range(100):
            series.record(float(i), i % 2 + (i // 2) * 2)  # always changes
        picked = series.downsample(max_points=10)
        assert len(picked) == 10
        assert picked[0] == (series.times_us[0], series.levels[0])
        assert picked[-1] == (series.times_us[-1], series.levels[-1])

    def test_downsample_short_series_unchanged(self):
        series = DepthSeries()
        series.record(0.0, 1)
        series.record(1.0, 2)
        assert series.downsample(max_points=256) == [(0.0, 1), (1.0, 2)]

    def test_downsample_needs_two_points(self):
        with pytest.raises(ValueError, match="max_points"):
            DepthSeries().downsample(max_points=1)
