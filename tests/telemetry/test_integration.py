"""End-to-end telemetry: spans, determinism, fault events, disabled parity."""

from __future__ import annotations

import pytest

from repro.analysis.torture import traced_rate_case
from repro.faults import FaultKind, FaultPlan
from repro.sim.runner import simulate_workload
from repro.ssd.config import scaled_config
from repro.ssd.device import SSD
from repro.ssd.request import write
from repro.telemetry import DISABLED, Telemetry
from repro.telemetry.bridge import TelemetryObserver
from repro.telemetry.export import to_jsonl


@pytest.fixture(scope="module")
def config():
    return scaled_config(blocks_per_chip=8, wordlines_per_block=4)


def _traced_sim(config, seed=1):
    telemetry = Telemetry()
    sim = simulate_workload(
        config,
        "MailServer",
        "secSSD",
        seed=seed,
        write_multiplier=0.5,
        policy="defer",
        telemetry=telemetry,
    )
    return sim, telemetry


@pytest.fixture(scope="module")
def traced(config):
    return _traced_sim(config)


class TestTracedRun:
    def test_every_layer_publishes(self, traced):
        _, telemetry = traced
        cats = {e.cat for e in telemetry.bus.events}
        assert {"ftl.page", "ftl.sanitize", "ftl.gc", "ftl.flash"} <= cats
        assert {"sim.service", "sim.request", "sim.drain"} <= cats

    def test_gc_and_lock_batch_spans_nest(self, traced):
        _, telemetry = traced
        spans = [e for e in telemetry.bus.events if e.ph == "X"]
        gc = [e for e in spans if e.name == "gc"]
        batches = [e for e in spans if e.name == "lock_batch"]
        assert gc and batches
        # a lock batch fired *inside* a GC invocation records depth 1
        assert {e.args["depth"] for e in batches} == {0, 1}
        assert all(e.args["depth"] == 0 for e in gc)

    def test_lock_drain_spans_under_defer_policy(self, traced):
        sim, telemetry = traced
        drains = [e for e in telemetry.bus.events if e.cat == "sim.drain"]
        assert len(drains) == sim.report.lock_drains > 0
        assert sum(e.args["n_locks"] for e in drains) == (
            sim.report.deferred_lock_pulses
        )
        for e in drains:
            assert e.ph == "X" and e.tid.startswith("chip")

    def test_timestamps_on_the_sim_clock(self, traced):
        sim, telemetry = traced
        horizon = sim.report.sim_elapsed_us
        assert all(
            0.0 <= e.ts_us <= horizon for e in telemetry.bus.events
        )

    def test_metrics_snapshot_lands_in_run_result(self, traced):
        sim, telemetry = traced
        snap = sim.run.telemetry
        assert snap["counters"]["ftl.programs"] == sim.run.stats.flash_programs
        assert snap["counters"]["ftl.erases"] == sim.run.stats.flash_erases
        assert snap["counters"]["sim.lock_drains"] == sim.report.lock_drains
        assert snap["histograms"]["request_work_us.write"]["count"] > 0
        assert snap["trace"]["retained"] == len(telemetry.bus.events)

    def test_same_seed_identical_event_stream(self, config, traced):
        _, first = traced
        _, second = _traced_sim(config)
        assert to_jsonl(first.bus.events) == to_jsonl(second.bus.events)


class TestDisabledParity:
    def test_untraced_device_carries_no_telemetry(self, config):
        ssd = SSD(config, variant="secSSD", seed=1)
        assert ssd.telemetry is None
        assert ssd.ftl.tel is DISABLED
        assert not isinstance(ssd.ftl.observer, TelemetryObserver)

    def test_traced_and_untraced_runs_agree_functionally(self, config, traced):
        sim_traced, _ = traced
        sim_plain = simulate_workload(
            config,
            "MailServer",
            "secSSD",
            seed=1,
            write_multiplier=0.5,
            policy="defer",
        )
        assert sim_plain.run.stats.to_dict() == sim_traced.run.stats.to_dict()
        assert sim_plain.report.sim_elapsed_us == (
            sim_traced.report.sim_elapsed_us
        )
        assert sim_plain.report.latency == sim_traced.report.latency
        assert sim_plain.run.telemetry == {}

    def test_disabled_session_object_not_installed(self, config):
        disabled_like = Telemetry.__new__(Telemetry)  # enabled class attr
        disabled_like.__class__ = type(
            "Off", (Telemetry,), {"enabled": False}
        )
        ssd = SSD(config, variant="baseline", seed=1, telemetry=disabled_like)
        assert ssd.telemetry is None


class TestOpenLoopClock:
    def test_device_defaults_to_occupancy_clock(self, config):
        telemetry = Telemetry()
        ssd = SSD(config, variant="baseline", seed=1, telemetry=telemetry)
        ssd.submit(write(0, 4))
        ssd.submit(write(0, 4))
        times = [e.ts_us for e in telemetry.bus.events]
        assert times == sorted(times)
        assert times[-1] > 0.0
        assert times[-1] <= ssd.ftl.timing.elapsed_us


class TestFaultEvents:
    def test_injected_faults_emit_instants(self, config):
        telemetry = Telemetry()
        case, _ = traced_rate_case(
            config,
            "secSSD",
            FaultPlan.single(FaultKind.PROGRAM_FAIL, 1e-2, seed=1),
            "program",
            "rate=0.01",
            150,
            seed=1,
            telemetry=telemetry,
        )
        faults = [e for e in telemetry.bus.events if e.cat == "fault"]
        assert case.passed
        assert len(faults) == sum(case.injected.values()) > 0
        for e in faults:
            assert e.ph == "i"
            assert e.name == "program"
            assert "op_index" in e.args
