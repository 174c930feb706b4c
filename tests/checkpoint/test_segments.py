"""Append-only telemetry segments: kill+resume, corruption and trimming.

Each generation writes only the trace events pushed since the previous
one; its manifest lists the chain of segment files that together hold
the retained ring.  A resumed campaign must rebuild exactly the ring an
uninterrupted one holds -- evictions and category sampling included.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.checkpoint.campaign import run_chunked_simulation
from repro.ssd.config import scaled_config
from repro.telemetry import Telemetry
from repro.telemetry.export import to_jsonl, trace_header

EVERY = 100
KW = dict(seed=1, write_multiplier=0.5)


def campaign(config, directory, telemetry, **extra):
    return run_chunked_simulation(
        config, "MailServer", "secSSD", directory, EVERY,
        telemetry=telemetry, **KW, **extra,
    )


def evicting():
    """A ring that evicts and samples across every generation."""
    return Telemetry(capacity=300, sample={"sim.service": 3})


def fingerprint(result, telemetry):
    bus = telemetry.bus
    return (
        result.to_json(),
        bus.stats(),
        to_jsonl(bus.events, trace_header(bus)),
    )


def manifests(directory):
    return {
        int(path.parent.name[len("gen-"):]): json.loads(path.read_text())
        for path in sorted(directory.glob("gen-*/MANIFEST.json"))
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted evicting campaign and its directory."""
    config = dataclasses.replace(  # the ck_config device, for a module fixture
        scaled_config(blocks_per_chip=16, wordlines_per_block=4),
        n_channels=1,
        chips_per_channel=2,
    )
    directory = tmp_path_factory.mktemp("reference")
    telemetry = evicting()
    result = campaign(config, directory, telemetry)
    return config, directory, fingerprint(result, telemetry)


class TestKillResume:
    def test_reference_evicts_and_samples(self, reference):
        _, directory, (_, stats, _) = reference
        assert stats["dropped"] > 0 and stats["sampled_out"] > 0
        assert len(manifests(directory)) >= 5

    def test_killed_after_every_generation(self, reference, tmp_path):
        config, directory, expected = reference
        for k in range(1, len(manifests(directory)) + 1):
            run_dir = tmp_path / f"kill-{k}"
            assert campaign(config, run_dir, evicting(), stop_after=k) is None
            telemetry = evicting()
            resumed = campaign(config, run_dir, telemetry, resume=True)
            assert fingerprint(resumed, telemetry) == expected, k
            assert "checkpoint_recovery" not in resumed.run.extra
            # the resumed run's own generations chain onto the loaded one
            assert manifests(run_dir) == manifests(directory), k


class TestTrimmedChain:
    def test_chain_covers_exactly_the_retained_ring(self, reference):
        _, directory, _ = reference
        for generation, manifest in manifests(directory).items():
            bus = json.loads(
                (directory / f"gen-{generation:06d}" / "telemetry.json")
                .read_text()
            )["bus"]
            chain = manifest["chains"]["events"]
            # no segment wholly older than the ring (indices from
            # ``dropped`` on), and none missing from it
            assert all(e["first"] + e["count"] > bus["dropped"] for e in chain)
            assert chain[0]["first"] <= bus["dropped"]
            assert chain[-1]["first"] + chain[-1]["count"] == bus["pushed"]
            # each segment holds only what its generation appended
            assert chain[-1]["generation"] == generation

    def test_some_chain_spans_generations(self, reference):
        _, directory, _ = reference
        assert any(
            len(manifest["chains"]["events"]) > 1
            for manifest in manifests(directory).values()
        )


class TestCorruptSegment:
    def test_flip_quarantines_every_generation_listing_it(
        self, ck_config, tmp_path
    ):
        # a ring that never evicts: every later chain lists gen 2's segment
        expected_telemetry = Telemetry()
        expected = fingerprint(
            campaign(ck_config, tmp_path / "ref", expected_telemetry),
            expected_telemetry,
        )
        run_dir = tmp_path / "run"
        campaign(ck_config, run_dir, Telemetry(), stop_after=4)
        for generation in (2, 3, 4):
            files = [
                e["file"] for e in manifests(run_dir)[generation]["chains"]["events"]
            ]
            assert "gen-000002/events.segment.json" in files
        target = run_dir / "gen-000002" / "events.segment.json"
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        target.write_bytes(bytes(raw))

        telemetry = Telemetry()
        resumed = campaign(ck_config, run_dir, telemetry, resume=True)
        assert fingerprint(resumed, telemetry) == expected
        recovery = resumed.run.extra["checkpoint_recovery"]
        assert [(r["generation"], r["reason"]) for r in recovery] == [
            (4, "bad-checksum"), (3, "bad-checksum"), (2, "bad-checksum"),
        ]
        quarantined = sorted(p.name for p in (run_dir / "quarantine").iterdir())
        assert quarantined == [
            f"gen-00000{g}.bad-checksum" for g in (2, 3, 4)
        ]
