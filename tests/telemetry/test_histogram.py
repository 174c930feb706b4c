"""The shared percentile math and the fixed-bucket histogram."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.histogram import (
    DEFAULT_BOUNDS_US,
    PERCENTILES,
    FixedBucketHistogram,
    SampleLog,
    percentile,
    summarize,
)


class TestNearestRankPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 99.0) == 0.0

    def test_single_sample_every_q(self):
        for q in (0.0, 50.0, 99.9, 100.0):
            assert percentile([42.0], q) == 42.0

    def test_nearest_rank_returns_observed_sample(self):
        data = sorted(float(v) for v in range(1, 101))
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 100.0
        # nearest rank: an actual sample, never an interpolated value
        assert percentile(data, 50.0) in data
        assert percentile(data, 99.0) in data

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_matches_sim_metrics_reexport(self):
        # satellite contract: one implementation serves every consumer
        from repro.sim.metrics import percentile as sim_percentile

        assert sim_percentile is percentile

    def test_canonical_ceil_rank(self):
        # the bugfixed rule: rank = ceil(q/100 * N) - 1, clamped.  The
        # old round()-based rank gave p50([1,2,3,4]) == 3 (the upper
        # neighbor) but p50([1..6]) == 3 (the lower) -- non-canonical.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 50.0) == 3.0
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0

    @given(
        data=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=64,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_property_returns_observed_sample(self, data, q):
        assert percentile(sorted(data), q) in data

    @given(
        data=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=64,
        ),
        q1=st.floats(min_value=0.0, max_value=100.0),
        q2=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_property_monotonic_in_q(self, data, q1, q2):
        ordered = sorted(data)
        lo, hi = min(q1, q2), max(q1, q2)
        assert percentile(ordered, lo) <= percentile(ordered, hi)

    def test_worklog_uses_shared_implementation(self):
        from repro.ftl.request import RequestOp

        log = SampleLog(RequestOp)
        data = [5.0, 1.0, 9.0, 3.0, 7.0]
        for v in data:
            log.add(RequestOp.READ, v)
        assert log.summary_for(None)["p50_us"] == percentile(sorted(data), 50)
        assert log.summary_for(None)["max_us"] == 9.0


class TestSummarize:
    def test_keys_follow_percentile_list(self):
        out = summarize([1.0, 2.0, 3.0])
        for label, _ in PERCENTILES:
            assert label in out
        assert out["count"] == 3.0
        assert out["mean_us"] == 2.0
        assert out["max_us"] == 3.0

    def test_empty(self):
        out = summarize([])
        assert out["count"] == 0.0
        assert out["mean_us"] == 0.0
        assert out["min_us"] == 0.0
        assert out["max_us"] == 0.0

    def test_min_is_reported(self):
        out = summarize([9.0, 2.0, 5.0])
        assert out["min_us"] == 2.0

    def test_empty_semantics_agree_with_snapshot(self):
        # the count field is the only way to tell "no samples" from a
        # real 0 us observation; both summary shapes agree on that
        empty_summary = summarize([])
        empty_snapshot = FixedBucketHistogram().snapshot()
        assert set(empty_summary) == set(empty_snapshot)
        assert empty_summary == empty_snapshot
        assert empty_summary["count"] == 0.0

    def test_real_zero_min_differs_from_empty_only_by_count(self):
        hist = FixedBucketHistogram()
        hist.observe(0.0)
        snap = hist.snapshot()
        assert snap["min_us"] == 0.0  # same value as empty...
        assert snap["count"] == 1.0   # ...distinguished by the count


class TestFixedBucketHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            FixedBucketHistogram(bounds=(10.0, 10.0))
        with pytest.raises(ValueError):
            FixedBucketHistogram(bounds=(20.0, 10.0))
        with pytest.raises(ValueError):
            FixedBucketHistogram(bounds=())

    def test_negative_sample_raises(self):
        hist = FixedBucketHistogram()
        with pytest.raises(ValueError):
            hist.observe(-1.0)

    def test_exact_count_sum_min_max(self):
        hist = FixedBucketHistogram(bounds=(10.0, 100.0))
        for v in (5.0, 50.0, 500.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.total == 555.0
        assert hist.min == 5.0
        assert hist.max == 500.0
        assert hist.mean == 185.0

    def test_percentile_is_bucket_upper_bound(self):
        hist = FixedBucketHistogram(bounds=(10.0, 100.0, 1000.0))
        for v in (3.0, 4.0, 40.0, 70.0):
            hist.observe(v)
        # ranks 0..3: samples 3,4 -> bucket <=10; 40,70 -> bucket <=100
        assert hist.percentile(0.0) == 10.0
        # the top bucket's 100.0 bound clamps to the exact observed max
        assert hist.percentile(100.0) == 70.0

    def test_single_sample_clamps_to_exact_max(self):
        # the bugfixed contradiction: one 5.0 us sample used to snapshot
        # p50_us = 10.0 (its bucket bound) > max_us = 5.0
        hist = FixedBucketHistogram(bounds=(10.0, 100.0))
        hist.observe(5.0)
        snap = hist.snapshot()
        assert snap["max_us"] == 5.0
        for label, _ in PERCENTILES:
            assert snap[label] == 5.0

    def test_bound_straddling_clamp_only_affects_top_bucket(self):
        # max (15.0) sits in the second bucket: percentiles answered
        # from the first bucket keep its bound, the top one clamps
        hist = FixedBucketHistogram(bounds=(10.0, 100.0))
        for v in (2.0, 3.0, 4.0, 15.0):
            hist.observe(v)
        assert hist.percentile(50.0) == 10.0   # rank 1 -> bucket <=10
        assert hist.percentile(100.0) == 15.0  # rank 3 -> min(100, max)

    def test_estimate_never_exceeds_observed_max(self):
        hist = FixedBucketHistogram(bounds=(10.0, 100.0, 1000.0))
        for v in (1.0, 9.0, 11.0, 99.0, 101.0, 999.0):
            hist.observe(v)
        for q in (0.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0):
            assert hist.percentile(q) <= hist.max

    def test_overflow_bucket_reports_exact_max(self):
        hist = FixedBucketHistogram(bounds=(10.0,))
        hist.observe(123456.0)
        assert hist.percentile(99.0) == 123456.0

    def test_empty_percentile_zero(self):
        assert FixedBucketHistogram().percentile(50.0) == 0.0

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            FixedBucketHistogram().percentile(101.0)

    def test_snapshot_shape(self):
        hist = FixedBucketHistogram()
        hist.observe(80.0)
        snap = hist.snapshot()
        assert snap["count"] == 1.0
        assert snap["min_us"] == 80.0
        assert snap["max_us"] == 80.0
        for label, _ in PERCENTILES:
            assert label in snap

    def test_default_bounds_cover_flash_latencies(self):
        # a read (~80us) and an erase train (~3.5ms) land in real buckets
        hist = FixedBucketHistogram(bounds=DEFAULT_BOUNDS_US)
        hist.observe(80.0)
        hist.observe(3500.0)
        assert hist.percentile(0.0) == 100.0
        assert hist.percentile(100.0) == 3500.0  # 5000-bucket, clamped to max
