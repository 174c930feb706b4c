"""The two contracts the ISSUE acceptance criteria pin down.

1. **Open-loop agreement**: under a saturating closed-loop load and the
   FIFO (in-order reservation) policy, the event engine's makespan must
   equal the open-loop occupancy model's exactly -- for every FTL
   variant, on more than one workload.  ``RecordingTiming`` carries
   both answers through a single run, so the comparison has no
   request-order skew by construction.

2. **Tail-latency separation**: on a trim-heavy workload, secSSD under
   the sanitization-aware policy (defer + suspend) must beat erSSD's
   p99 host-read latency strictly, with the runtime sanitizer enabled
   and reporting zero unreadability violations while deferral is live.
"""

import pytest

from repro.sim import ClosedLoopArrivals, DeferLocksPolicy, simulate_workload

VARIANTS = ("baseline", "erSSD", "scrSSD", "secSSD")
WORKLOADS = ("Mobile", "MailServer")


class TestOpenLoopAgreement:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fifo_engine_matches_open_loop_iops(
        self, tiny_config, variant, workload
    ):
        result = simulate_workload(
            tiny_config,
            workload,
            variant,
            policy="fifo",
            arrivals=ClosedLoopArrivals(queue_depth=512),
            checked=False,
        )
        report = result.report
        assert report.completed == result.requests
        assert report.open_loop_iops > 0.0
        # the in-order calendar reserves every stage exactly as the
        # open-loop model does, so the makespans agree to the bit
        assert report.sim_elapsed_us == report.open_loop_elapsed_us, (
            f"{variant}/{workload}: engine {report.iops:.0f} IOPS vs "
            f"open-loop {report.open_loop_iops:.0f} IOPS"
        )
        assert report.open_loop_agreement == 1.0

    def test_agreement_degrades_when_unsaturated(self, tiny_config):
        # sanity check that the contract is not vacuous: slow open
        # arrivals leave the device idle between requests, so the engine
        # falls far behind the always-full open-loop schedule
        from repro.sim import PoissonArrivals

        result = simulate_workload(
            tiny_config, "Mobile", "baseline", policy="fifo",
            write_multiplier=0.25,
            arrivals=PoissonArrivals(rate_iops=50, seed=2), checked=False,
        )
        assert result.report.open_loop_agreement < 0.5


class TestTailLatencySeparation:
    def test_secssd_p99_read_beats_erssd_with_sanitizer_on(self, tiny_config):
        common = dict(
            workload="MailServer", seed=1,
            arrivals=ClosedLoopArrivals(queue_depth=32),
            checked=True, check_interval=50,
        )
        er = simulate_workload(
            tiny_config, variant="erSSD", policy="read_priority", **common
        )
        sec = simulate_workload(
            tiny_config, variant="secSSD",
            policy=DeferLocksPolicy(max_pending=8), **common
        )

        er_p99 = er.report.latency["read"]["p99_us"]
        sec_p99 = sec.report.latency["read"]["p99_us"]
        assert sec_p99 < er_p99, (
            f"secSSD p99 read {sec_p99:.0f}us not below erSSD {er_p99:.0f}us"
        )

        # the win must come with deferral actually active and the
        # runtime sanitizer proving no secured page was readable
        assert sec.report.deferred_lock_pulses > 0
        assert sec.report.checker["violations"] == 0
        assert sec.report.checker["probes"] > 0
