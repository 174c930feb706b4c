"""Aging campaigns: lifetime verdict, determinism, worn-state fidelity.

The ``repro age`` contract mirrors the campaign layer's: the merged
lifetime payload must be identical for any ``--jobs`` count and across
kill+resume, and a checkpoint taken on a device that has already lost
blocks to P/E exhaustion must restore every piece of the wear state --
RETIRED blocks, erase counters, wear stats, and the pending
wear-leveling marks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.aging import (
    AGING_VARIANTS,
    format_lifetime,
    run_aging_campaign,
)
from repro.analysis.lifetime import LifetimeReport
from repro.analysis.torture import torture_requests
from repro.checkpoint.codec import canonical_dumps, encode
from repro.checkpoint.device import restore_device, snapshot_device
from repro.flash.block import BlockState
from repro.ftl.allocator import OutOfBlocksError
from repro.ssd.config import scaled_config
from repro.ssd.device import SSD

EVERY = 10
KW = dict(seed=1, write_multiplier=2.0)


def aging_config(pe_limit=8, **kw):
    """Wears out in seconds: 2 small chips, endurance of 8 erases."""
    return dataclasses.replace(
        scaled_config(
            blocks_per_chip=16,
            wordlines_per_block=4,
            pe_limit=pe_limit,
            wear_leveling_threshold=4,
            **kw,
        ),
        n_channels=1,
        chips_per_channel=2,
    )


@pytest.fixture(scope="module")
def serial_payload(tmp_path_factory):
    root = tmp_path_factory.mktemp("age-serial")
    return run_aging_campaign(
        aging_config(), "MailServer", root, EVERY, **KW
    )


class TestLifetimeVerdict:
    def test_every_variant_reports(self, serial_payload):
        assert tuple(serial_payload["reports"]) == AGING_VARIANTS
        assert serial_payload["pe_limit"] == 8

    def test_this_horizon_kills_every_variant(self, serial_payload):
        # the config is tuned so first-wearout fires for all four --
        # otherwise the death-rank ordering below would be vacuous
        for variant, data in serial_payload["reports"].items():
            report = LifetimeReport.from_dict(data)
            assert not report.survived, variant
            assert report.worn_out_blocks >= 1, variant

    def test_secSSD_outlives_erSSD(self, serial_payload):
        reports = {
            variant: LifetimeReport.from_dict(data)
            for variant, data in serial_payload["reports"].items()
        }
        assert reports["secSSD"].death_rank >= reports["erSSD"].death_rank
        assert (
            reports["secSSD"].host_pages_to_first_block_death
            > reports["erSSD"].host_pages_to_first_block_death
        )

    def test_format_renders_table_and_verdict(self, serial_payload):
        text = format_lifetime(serial_payload)
        assert "pe_limit=8" in text
        assert "secSSD outlives erSSD" in text


class TestAgingDeterminism:
    def test_parallel_equals_serial(self, serial_payload, tmp_path_factory):
        root = tmp_path_factory.mktemp("age-jobs2")
        parallel = run_aging_campaign(
            aging_config(), "MailServer", root, EVERY, jobs=2, **KW
        )
        assert parallel["reports"] == serial_payload["reports"]

    def test_kill_resume_equals_serial(self, serial_payload, tmp_path_factory):
        root = tmp_path_factory.mktemp("age-resume")
        paused = run_aging_campaign(
            aging_config(), "MailServer", root, EVERY, stop_after=1, **KW
        )
        assert paused == {
            "paused": True,
            "workload": "MailServer",
            "pe_limit": 8,
            "variants": list(AGING_VARIANTS),
        }
        resumed = run_aging_campaign(
            aging_config(), "MailServer", root, EVERY, **KW
        )
        assert resumed["reports"] == serial_payload["reports"]


class TestWornStateRoundTrip:
    """Snapshot/restore fidelity after the first block death."""

    def state_bytes(self, ssd):
        return canonical_dumps(encode(snapshot_device(ssd)))

    def worn_device(self):
        ssd = SSD(aging_config(pe_limit=5), "secSSD", seed=3, checked=True)
        for request in torture_requests(50_000, ssd.logical_pages, seed=3):
            ssd.submit(request)
            if ssd.ftl.stats.worn_out_blocks >= 1:
                break
        assert ssd.ftl.stats.worn_out_blocks >= 1
        return ssd

    def test_worn_blocks_survive_restore(self):
        source = self.worn_device()
        target = SSD(aging_config(pe_limit=5), "secSSD", seed=3, checked=True)
        restore_device(target, None, snapshot_device(source))

        assert self.state_bytes(target) == self.state_bytes(source)
        src, dst = source.ftl, target.ftl
        assert dst.stats.worn_out_blocks == src.stats.worn_out_blocks
        assert (
            dst.stats.host_writes_at_first_wearout
            == src.stats.host_writes_at_first_wearout
        )
        assert dst._wear_level_due == src._wear_level_due
        for chip_id, (a, b) in enumerate(zip(src.chips, dst.chips)):
            assert dst.alloc.retired_blocks(chip_id) == src.alloc.retired_blocks(
                chip_id
            )
            for src_block, dst_block in zip(a.blocks, b.blocks):
                assert dst_block.erase_count == src_block.erase_count
                assert dst_block.state is src_block.state
                if src_block.state is BlockState.RETIRED:
                    assert dst_block.index in dst.alloc.retired_blocks(chip_id)

    def test_restored_device_wears_out_identically(self):
        """Near end of life, restored and original must fail in step."""
        source = self.worn_device()
        target = SSD(aging_config(pe_limit=5), "secSSD", seed=3, checked=True)
        restore_device(target, None, snapshot_device(source))

        outcomes = []
        for ssd in (source, target):
            try:
                for request in torture_requests(
                    400, ssd.logical_pages, seed=11
                ):
                    ssd.submit(request)
                outcomes.append(None)
            except OutOfBlocksError:
                outcomes.append("died")
        assert outcomes[0] == outcomes[1]
        assert self.state_bytes(target) == self.state_bytes(source)
