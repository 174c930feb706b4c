"""Torture harness: workload determinism, leak check, scorecard identity."""

import json

from repro.analysis.torture import (
    TortureCase,
    run_power_loss_case,
    run_torture,
    torture_requests,
    traced_rate_case,
)
from repro.checkers.residue import stale_secured_leaks as stale_secured_exposures
from repro.faults import FaultKind, FaultPlan
from repro.ssd.device import SSD
from repro.ssd.request import RequestOp, trim, write


class TestTortureRequests:
    def test_same_seed_same_stream(self):
        a = torture_requests(200, 1024, seed=5)
        b = torture_requests(200, 1024, seed=5)
        assert a == b

    def test_different_seed_differs(self):
        assert torture_requests(200, 1024, seed=5) != torture_requests(
            200, 1024, seed=6
        )

    def test_requests_stay_in_bounds(self):
        for request in torture_requests(500, 64, seed=1):
            assert 0 <= request.lpa
            assert request.lpa + request.npages <= 64

    def test_mix_contains_all_ops(self):
        ops = {r.op for r in torture_requests(300, 1024, seed=2)}
        assert ops == {RequestOp.READ, RequestOp.WRITE, RequestOp.TRIM}


class TestStaleSecuredExposures:
    def test_vacuous_for_no_promise_variants(self, tiny_config):
        ssd = SSD(tiny_config, "baseline")
        ssd.submit(write(0, secure=True))
        ssd.submit(trim(0))
        assert stale_secured_exposures(ssd.ftl) == []

    def test_detects_unsanitized_stale_data(self, tiny_config):
        # plant a readable secured stale copy behind the FTL's back: a
        # dead version the sanitization machinery never saw must be
        # reported as an exposure
        ssd = SSD(tiny_config, "secSSD")
        ssd.submit(write(0, secure=True))
        chip = ssd.ftl.chips[1]
        block = chip.free_blocks()[-1]
        ppn = block * tiny_config.geometry.pages_per_block
        chip.program_page(ppn, "ghost", {"secure": True, "lpa": 0, "seq": 999})
        assert stale_secured_exposures(ssd.ftl) == [ssd.ftl.make_gppa(1, ppn)]

    def test_clean_on_secssd(self, tiny_config):
        ssd = SSD(tiny_config, "secSSD", checked=True)
        for request in torture_requests(120, ssd.logical_pages, seed=4):
            ssd.submit(request)
        assert stale_secured_exposures(ssd.ftl) == []

    def test_live_copies_are_not_exposures(self, tiny_config):
        ssd = SSD(tiny_config, "secSSD")
        for lpa in range(8):
            ssd.submit(write(lpa, secure=True))
        assert stale_secured_exposures(ssd.ftl) == []


class TestCaseRunners:
    def test_rate_case_passes_and_reports_faults(self, tiny_config):
        plan = FaultPlan.single(FaultKind.PROGRAM_FAIL, 0.05, seed=3)
        case, _ = traced_rate_case(
            tiny_config, "secSSD", plan, "program", "rate=0.05", 120, seed=3
        )
        assert case.passed
        assert case.outcome == "PASS"
        assert case.injected.get("program", 0) > 0
        assert case.robustness["program_fails"] > 0

    def test_power_loss_case_recovers(self, tiny_config):
        case = run_power_loss_case(tiny_config, "secSSD", 40, 120, seed=3)
        assert case.outcome == "PASS"
        assert case.kind == "power_loss"
        assert case.detail == "op=40"
        assert case.injected == {"power_loss": 1}

    def test_in_flight_pages_are_not_excused(self, tiny_config):
        # these cuts land with invalidations in flight; recovery revives
        # or sanitizes each such page, so no leak is excused and the
        # cases pass on the plain leak scan
        for variant, op in (("secSSD", 52), ("scrSSD", 70)):
            case = run_power_loss_case(tiny_config, variant, op, 120, seed=3)
            assert case.exempt > 0
            assert case.outcome == "PASS"

    def test_power_loss_beyond_run_is_skipped(self, tiny_config):
        case = run_power_loss_case(
            tiny_config, "baseline", 10_000_000, 20, seed=3
        )
        assert case.outcome.startswith("SKIP")
        assert case.passed  # a skip is not a failure


class TestScorecard:
    def run(self, tiny_config, jobs=1, **kwargs):
        return run_torture(
            tiny_config,
            variants=("baseline", "secSSD"),
            seed=11,
            n_requests=60,
            rates=(0.01,),
            window_start=20,
            window=2,
            jobs=jobs,
            # the checkpoint sweep has its own tests (tests/checkpoint/);
            # keeping it out preserves the exact case counts below
            checkpoint_modes=(),
            **kwargs,
        )

    def test_sweep_passes_and_covers_expected_cases(self, tiny_config):
        card = self.run(tiny_config)
        assert card.passed
        assert card.failures == []
        # baseline: 3 rate cases + 2 power-loss; secSSD adds the two lock
        # kinds and the three forced lock-failure cases
        by_variant = {}
        for case in card.cases:
            by_variant.setdefault(case.variant, []).append(case)
        assert len(by_variant["baseline"]) == 5
        assert len(by_variant["secSSD"]) == 10
        forced = [c for c in card.cases if c.detail == "forced"]
        assert {c.kind for c in forced} == {
            "plock", "block_lock", "plock+block_lock"
        }

    def test_byte_identical_reruns(self, tiny_config):
        assert self.run(tiny_config).to_json() == self.run(tiny_config).to_json()

    def test_parallel_jobs_byte_identical(self, tiny_config):
        # the whole case grid on 3 workers: the merged scorecard must be
        # byte-for-byte the serial one (canonical-order merge contract)
        assert (
            self.run(tiny_config, jobs=3).to_json()
            == self.run(tiny_config).to_json()
        )

    def test_json_round_trips(self, tiny_config):
        card = self.run(tiny_config)
        payload = json.loads(card.to_json())
        assert payload["passed"] is True
        assert payload["n_cases"] == len(card.cases)
        assert payload["cases"][0]["variant"] == "baseline"

    def test_format_reports_verdict(self, tiny_config):
        card = self.run(tiny_config)
        text = card.format()
        assert "torture: PASS" in text
        assert f"seed {card.seed}" in text

    def test_failure_detection(self):
        case = TortureCase(
            variant="secSSD",
            kind="plock",
            detail="forced",
            outcome="FAIL: 3 readable stale secured page(s)",
        )
        assert not case.passed
