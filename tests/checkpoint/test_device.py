"""Device snapshot/restore: full-state fidelity and the restore audit."""

from __future__ import annotations

import json
from array import array

import pytest

from repro.analysis.torture import torture_requests
from repro.checkpoint.campaign import run_chunked_simulation
from repro.checkpoint.codec import canonical_dumps, decode, encode
from repro.checkpoint.device import restore_device, snapshot_device
from repro.faults import FaultKind, FaultPlan
from repro.ftl import FTL_VARIANTS
from repro.ftl.request import RequestOp
from repro.security.attacker import RawChipAttacker
from repro.sim.arrivals import ClosedLoopArrivals
from repro.sim.engine import QueueingEngine
from repro.sim.ops import RecordingTiming
from repro.sim.policies import policy_by_name
from repro.sim.runner import capture_block_trace
from repro.ssd.device import SSD


def state_bytes(ssd):
    return canonical_dumps(encode(snapshot_device(ssd)))


def drive(ssd, n, seed):
    for request in torture_requests(n, ssd.logical_pages, seed):
        ssd.submit(request)


class TestSnapshotRestore:
    def test_restored_state_is_byte_identical(self, ck_config):
        source = SSD(ck_config, "secSSD", seed=3, checked=True)
        drive(source, 150, seed=3)
        snapshot = snapshot_device(source)

        target = SSD(ck_config, "secSSD", seed=3, checked=True)
        restore_device(target, None, snapshot)
        assert state_bytes(target) == state_bytes(source)

    def test_restored_device_evolves_identically(self, ck_config):
        source = SSD(ck_config, "secSSD", seed=3, checked=True)
        drive(source, 150, seed=3)
        target = SSD(ck_config, "secSSD", seed=3, checked=True)
        restore_device(target, None, snapshot_device(source))
        # identical future: same traffic -> same full state afterwards
        drive(source, 80, seed=17)
        drive(target, 80, seed=17)
        assert state_bytes(target) == state_bytes(source)

    def test_fault_rng_streams_round_trip(self, ck_config):
        plan = FaultPlan.single(FaultKind.PROGRAM_FAIL, 0.02, seed=5)
        source = SSD(ck_config, "secSSD", seed=5, checked=True, faults=plan)
        drive(source, 150, seed=5)
        target = SSD(ck_config, "secSSD", seed=5, checked=True, faults=plan)
        restore_device(target, None, snapshot_device(source))
        drive(source, 80, seed=23)
        drive(target, 80, seed=23)
        assert state_bytes(target) == state_bytes(source)

    @pytest.mark.parametrize(
        "variant", ["baseline", "erSSD", "scrSSD", "secSSD_nobLock", "cryptSSD"]
    )
    def test_every_variant_round_trips(self, ck_config, variant):
        source = SSD(ck_config, variant, seed=3, checked=True)
        drive(source, 120, seed=3)
        target = SSD(ck_config, variant, seed=3, checked=True)
        restore_device(target, None, snapshot_device(source))
        assert state_bytes(target) == state_bytes(source)


class TestParityValidation:
    def test_checked_snapshot_needs_checked_target(self, ck_config):
        source = SSD(ck_config, "secSSD", seed=3, checked=True)
        drive(source, 60, seed=3)
        target = SSD(ck_config, "secSSD", seed=3, checked=False)
        with pytest.raises(ValueError):
            restore_device(target, None, snapshot_device(source))

    def test_fault_snapshot_needs_injecting_target(self, ck_config):
        plan = FaultPlan.single(FaultKind.PROGRAM_FAIL, 0.02, seed=5)
        source = SSD(ck_config, "secSSD", seed=5, checked=True, faults=plan)
        drive(source, 60, seed=5)
        target = SSD(ck_config, "secSSD", seed=5, checked=True)
        with pytest.raises(ValueError):
            restore_device(target, None, snapshot_device(source))


class TestEngineState:
    def build(self, config, variant="secSSD"):
        requests, steady_start = capture_block_trace(
            config, "MailServer", seed=1, write_multiplier=0.3
        )
        ssd = SSD(config, variant, seed=1, checked=True)
        ssd.instrument_timing(RecordingTiming.from_config(config))
        engine = QueueingEngine(
            ssd,
            requests,
            ClosedLoopArrivals(),
            policy_by_name("fifo"),
            steady_start=steady_start,
        )
        return requests, ssd, engine

    def test_window_boundary_is_quiescent(self, ck_config):
        requests, ssd, engine = self.build(ck_config)
        engine.run_window(len(requests) // 2)
        engine.assert_quiescent()  # must not raise

    def test_state_round_trips_to_identical_report(self, ck_config):
        requests, source_ssd, source = self.build(ck_config)
        source.run_window(len(requests) // 2)
        snapshot = snapshot_device(source_ssd, source)

        _, target_ssd, target = self.build(ck_config)
        restore_device(target_ssd, target, snapshot)
        source.run_window(len(requests))
        target.run_window(len(requests))
        a = source._report()
        b = target._report()
        assert b.latency == a.latency
        assert b.utilization == a.utilization

    def test_restored_series_stay_typed_columns(self, ck_config):
        # the checkpoint carries plain lists; a resumed campaign must get
        # its typed columns back, not keep the boxed lists
        requests, source_ssd, source = self.build(ck_config, "erSSD")
        source.run_window(len(requests))
        snapshot = snapshot_device(source_ssd, source)
        stored = json.loads(canonical_dumps(encode(snapshot)))

        _, target_ssd, target = self.build(ck_config, "erSSD")
        restore_device(target_ssd, target, decode(stored))
        columns = {
            "depth.times_us": target.depth.times_us,
            "depth.levels": target.depth.levels,
            "backlog.times_us": target.sanitize_backlog.times_us,
            "backlog.levels": target.sanitize_backlog.levels,
        }
        for op in RequestOp:
            columns[f"latency.{op.value}"] = target.latency.samples[op]
        for name, column in columns.items():
            assert isinstance(column, array), name
            assert column.typecode == ("q" if name == "depth.levels" else "d"), name
        assert all(len(column) for column in columns.values())  # none vacuous
        assert target.state_dict() == source.state_dict()

    def test_state_dict_refuses_non_quiescence(self, ck_config):
        requests, ssd, engine = self.build(ck_config)
        engine.run_window(10)
        engine.in_flight = 1  # simulate a mid-flight capture attempt
        with pytest.raises(RuntimeError, match="not quiescent"):
            engine.state_dict()

    def test_load_rejects_mismatched_server_count(self, ck_config):
        requests, ssd, engine = self.build(ck_config)
        engine.run_window(10)
        state = engine.state_dict()
        state = dict(state, servers=state["servers"][:-1])
        with pytest.raises(ValueError):
            engine.load_state_dict(state)


def page_fields(ssd):
    return [
        list(zip(
            block.state_dict()["page_state"],
            block.data,
            block.spare,
            block.program_time,
            strict=True,
        ))
        for chip in ssd.ftl.chips
        for block in chip.blocks
    ]


class TestColumnarPages:
    """Block pages travel as columns (state code, data, spare, program
    time); a campaign's device must survive the trip page for page."""

    @pytest.mark.parametrize("variant", sorted(FTL_VARIANTS))
    def test_campaign_device_round_trips(self, ck_config, tmp_path, variant):
        source = run_chunked_simulation(
            ck_config, "MailServer", variant, tmp_path, 10**9,
            seed=2, write_multiplier=0.3,
        ).device
        target = SSD(ck_config, variant, seed=2)
        target.instrument_timing(RecordingTiming.from_config(ck_config))
        restore_device(target, None, snapshot_device(source))
        assert state_bytes(target) == state_bytes(source)
        assert page_fields(target) == page_fields(source)
        assert [chip.raw_dump() for chip in target.ftl.chips] == [
            chip.raw_dump() for chip in source.ftl.chips
        ]
        image = RawChipAttacker(source).image_device()
        assert len(image) > 0
        assert RawChipAttacker(target).image_device() == image
