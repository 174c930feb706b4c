"""Resumable campaigns: the byte-identity determinism contract.

The headline acceptance test: a campaign interrupted at a checkpoint
(or corrupted on disk) and resumed must produce a ``SimResult`` whose
``to_json()`` is byte-identical to the same campaign run uninterrupted
at the same cadence -- stats, latency percentiles, telemetry included.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.checkpoint import campaign
from repro.checkpoint.campaign import (
    CampaignMismatchError,
    run_chunked_simulation,
)
from repro.checkpoint.codec import canonical_dumps, section_checksum
from repro.checkpoint.store import FORMAT_VERSION, CheckpointError
from repro.cli import main
from repro.faults import FaultKind, FaultPlan
from repro.sim.runner import simulate_workload
from repro.telemetry import Telemetry

EVERY = 150
KW = dict(seed=1, write_multiplier=0.5)


def newest_gen(directory):
    return max(
        p for p in directory.iterdir()
        if p.is_dir() and p.name.startswith("gen-") and "." not in p.name
    )


def interrupted_then_resumed(config, workload, variant, directory):
    run_chunked_simulation(
        config, workload, variant, directory, EVERY, stop_after=1, **KW
    )
    return run_chunked_simulation(
        config, workload, variant, directory, EVERY, resume=True, **KW
    )


class TestByteIdentity:
    @pytest.mark.parametrize("workload", ["MailServer", "DBServer"])
    @pytest.mark.parametrize(
        "variant", ["baseline", "erSSD", "scrSSD", "secSSD"]
    )
    def test_resumed_equals_uninterrupted(
        self, ck_config, tmp_path, variant, workload
    ):
        reference = run_chunked_simulation(
            ck_config, workload, variant, tmp_path / "ref", EVERY, **KW
        )
        resumed = interrupted_then_resumed(
            ck_config, workload, variant, tmp_path / "run"
        )
        assert resumed.to_json() == reference.to_json()

    def test_single_window_matches_unchunked_runner(self, ck_config, tmp_path):
        plain = simulate_workload(ck_config, "MailServer", "secSSD", **KW)
        chunked = run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path, 10**9, **KW
        )
        assert chunked.to_json() == plain.to_json()

    def test_faults_and_telemetry_round_trip(self, ck_config, tmp_path):
        def build(directory, **extra):
            return run_chunked_simulation(
                ck_config, "MailServer", "secSSD", directory, EVERY,
                faults=FaultPlan.single(
                    FaultKind.PROGRAM_FAIL, 0.01, seed=1
                ),
                telemetry=Telemetry(),
                **KW, **extra,
            )

        reference = build(tmp_path / "ref")
        build(tmp_path / "run", stop_after=1)
        resumed = build(tmp_path / "run", resume=True)
        assert resumed.to_json() == reference.to_json()


class TestInterruption:
    def test_stop_after_returns_none_and_persists(self, ck_config, tmp_path):
        out = run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path, EVERY,
            stop_after=1, **KW,
        )
        assert out is None
        assert (tmp_path / "gen-000001" / "MANIFEST.json").exists()
        assert (tmp_path / "campaign.json").exists()

    @pytest.mark.parametrize("stop_after", [0, -1])
    def test_stop_after_below_one_rejected(self, ck_config, tmp_path, stop_after):
        with pytest.raises(ValueError, match="stop_after must be >= 1"):
            run_chunked_simulation(
                ck_config, "MailServer", "secSSD", tmp_path / "ck", EVERY,
                stop_after=stop_after, **KW,
            )
        assert not (tmp_path / "ck").exists()

    def test_mid_write_power_cut_then_resume(self, ck_config, tmp_path):
        from repro.checkpoint.store import StoreCrashInjected

        reference = run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path / "ref", EVERY, **KW
        )
        directory = tmp_path / "run"
        run_chunked_simulation(
            ck_config, "MailServer", "secSSD", directory, EVERY,
            stop_after=1, **KW,
        )
        with pytest.raises(StoreCrashInjected):
            run_chunked_simulation(
                ck_config, "MailServer", "secSSD", directory, EVERY,
                resume=True, _crash_after="section:ftl", **KW,
            )
        final = run_chunked_simulation(
            ck_config, "MailServer", "secSSD", directory, EVERY,
            resume=True, **KW,
        )
        assert final.to_json() == reference.to_json()
        reasons = [
            r["reason"] for r in final.run.extra["checkpoint_recovery"]
        ]
        assert "torn-write" in reasons


class TestGcState:
    """Cyclic GC is paused for snapshot/write and restore, then handed
    back exactly as the caller had it -- also when the write crashes."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_before(self, request):
        prior = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if prior else gc.disable)()

    def test_restored_after_injected_crash(self, ck_config, tmp_path, gc_before):
        from repro.checkpoint.store import StoreCrashInjected

        with pytest.raises(StoreCrashInjected):
            run_chunked_simulation(
                ck_config, "MailServer", "secSSD", tmp_path, EVERY,
                _crash_after="section:ftl", **KW,
            )
        assert gc.isenabled() is gc_before

    def test_paused_inside_and_restored_after(
        self, ck_config, tmp_path, gc_before, monkeypatch
    ):
        seen = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                seen.append((fn.__name__, gc.isenabled()))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("snapshot_device", "restore_device"):
            monkeypatch.setattr(campaign, name, spy(getattr(campaign, name)))
        run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path, EVERY,
            stop_after=1, **KW,
        )
        assert gc.isenabled() is gc_before
        run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path, EVERY,
            resume=True, **KW,
        )
        assert gc.isenabled() is gc_before
        assert {name for name, _ in seen} == {
            "snapshot_device", "restore_device",
        }
        assert not any(enabled for _, enabled in seen)


class TestCorruptionRecovery:
    def test_bit_flip_falls_back_and_reports(self, ck_config, tmp_path):
        reference = run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path / "ref", EVERY, **KW
        )
        directory = tmp_path / "run"
        run_chunked_simulation(
            ck_config, "MailServer", "secSSD", directory, EVERY,
            stop_after=2, **KW,
        )
        target = newest_gen(directory) / "ftl.json"
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        target.write_bytes(bytes(raw))
        final = run_chunked_simulation(
            ck_config, "MailServer", "secSSD", directory, EVERY,
            resume=True, **KW,
        )
        assert final.to_json() == reference.to_json()
        recovery = final.run.extra["checkpoint_recovery"]
        assert [r["reason"] for r in recovery] == ["bad-checksum"]
        assert (directory / "quarantine").is_dir()

    def test_checksum_valid_tamper_fails_restore_audit(
        self, ck_config, tmp_path
    ):
        # a duplicate L2P entry survives every checksum but breaks the
        # bijection invariant: the restore-time audit must catch it
        reference = run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path / "ref", EVERY, **KW
        )
        directory = tmp_path / "run"
        run_chunked_simulation(
            ck_config, "MailServer", "secSSD", directory, EVERY,
            stop_after=2, **KW,
        )
        gen = newest_gen(directory)
        path = gen / "ftl.json"
        payload = json.loads(path.read_text())
        table = payload["l2p"]["l2p"]
        mapped = [
            i for i, v in enumerate(table) if isinstance(v, int) and v >= 0
        ]
        table[mapped[0]] = table[mapped[1]]
        text = canonical_dumps(payload)
        path.write_text(text)
        mpath = gen / "MANIFEST.json"
        manifest = json.loads(mpath.read_text())
        manifest["sections"]["ftl"] = {
            "checksum": section_checksum(text),
            "size": len(text.encode("utf-8")),
        }
        mpath.write_text(canonical_dumps(manifest))
        final = run_chunked_simulation(
            ck_config, "MailServer", "secSSD", directory, EVERY,
            resume=True, **KW,
        )
        assert final.to_json() == reference.to_json()
        recovery = final.run.extra["checkpoint_recovery"]
        assert [r["reason"] for r in recovery] == ["audit-failed"]

    @pytest.mark.parametrize("version", [4, 5, 6, 7])
    def test_format_v4_generation_is_quarantined_as_stale(
        self, ck_config, tmp_path, version
    ):
        # v4 chips carried a ``stats`` payload, v5 traced engines wrote
        # their segment-path event order, v6 carried a ``worklog``
        # section and a metrics registry and v7 per-stream allocator
        # cursors; such a generation must be
        # quarantined unread, and the resume must fall back past it
        reference = run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path / "ref", EVERY, **KW
        )
        directory = tmp_path / "run"
        run_chunked_simulation(
            ck_config, "MailServer", "secSSD", directory, EVERY,
            stop_after=2, **KW,
        )
        mpath = newest_gen(directory) / "MANIFEST.json"
        manifest = json.loads(mpath.read_text())
        manifest["format_version"] = version
        mpath.write_text(canonical_dumps(manifest))
        final = run_chunked_simulation(
            ck_config, "MailServer", "secSSD", directory, EVERY,
            resume=True, **KW,
        )
        assert final.to_json() == reference.to_json()
        [report] = final.run.extra["checkpoint_recovery"]
        assert report["reason"] == "stale-version"
        assert report["detail"] == (
            f"format_version={version}, expected {FORMAT_VERSION}"
        )
        assert (directory / "quarantine" / report["quarantined_to"]).is_dir()

    def test_every_generation_corrupt_is_a_clean_error(
        self, ck_config, tmp_path
    ):
        run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path, EVERY,
            stop_after=1, **KW,
        )
        (tmp_path / "gen-000001" / "ftl.json").write_bytes(b"garbage")
        with pytest.raises(CheckpointError) as excinfo:
            run_chunked_simulation(
                ck_config, "MailServer", "secSSD", tmp_path, EVERY,
                resume=True, **KW,
            )
        assert len(excinfo.value.reports) == 1


class TestCampaignManifest:
    def test_resume_requires_a_manifest(self, ck_config, tmp_path):
        with pytest.raises(CampaignMismatchError, match="no campaign"):
            run_chunked_simulation(
                ck_config, "MailServer", "secSSD", tmp_path, EVERY,
                resume=True, **KW,
            )

    @pytest.mark.parametrize(
        "override, field",
        [
            (dict(seed=2), "seed"),
            (dict(write_multiplier=0.7), "write_multiplier"),
            (dict(checkpoint_every=EVERY + 1), "checkpoint_every"),
        ],
    )
    def test_diverging_parameters_are_named(
        self, ck_config, tmp_path, override, field
    ):
        run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path, EVERY,
            stop_after=1, **KW,
        )
        kwargs = dict(KW, checkpoint_every=EVERY)
        kwargs.update(override)
        every = kwargs.pop("checkpoint_every")
        with pytest.raises(CampaignMismatchError, match=field):
            run_chunked_simulation(
                ck_config, "MailServer", "secSSD", tmp_path, every,
                resume=True, **kwargs,
            )

    def test_telemetry_shape_diverges(self, ck_config, tmp_path):
        # the ring capacity and sample strides decide what a segment
        # chain holds, so a resume under another shape must refuse
        run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path, EVERY,
            telemetry=Telemetry(capacity=100000), stop_after=1, **KW,
        )
        with pytest.raises(CampaignMismatchError, match="telemetry"):
            run_chunked_simulation(
                ck_config, "MailServer", "secSSD", tmp_path, EVERY,
                telemetry=Telemetry(capacity=500, sample={"sim.service": 7}),
                resume=True, **KW,
            )

    @pytest.mark.parametrize("version", [4, 5, 6, 7])
    def test_format_v4_directory_is_refused_in_one_line(
        self, tmp_path, capsys, version
    ):
        # a whole directory written by an older format fingerprints its
        # format in campaign.json, so resume names it before any restore
        argv = [
            "simulate", "--workload", "MailServer", "--variants", "secSSD",
            "--blocks", "8", "--wordlines", "4", "--multiplier", "0.3",
            "--qd", "8", "--checkpoint-every", "200",
            "--checkpoint-dir", str(tmp_path),
        ]
        assert main(argv + ["--stop-after", "1"]) == 0
        capsys.readouterr()
        for path in (tmp_path / "secSSD").rglob("*.json"):
            payload = json.loads(path.read_text())
            if isinstance(payload, dict) and "format_version" in payload:
                payload["format_version"] = version
                path.write_text(canonical_dumps(payload))
        assert main(argv + ["--resume"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "simulate: campaign parameters do not match the checkpoint "
            "directory's manifest; diverging field(s): format_version"
        ]

    def test_different_variant_diverges(self, ck_config, tmp_path):
        run_chunked_simulation(
            ck_config, "MailServer", "secSSD", tmp_path, EVERY,
            stop_after=1, **KW,
        )
        with pytest.raises(CampaignMismatchError, match="variant"):
            run_chunked_simulation(
                ck_config, "MailServer", "baseline", tmp_path, EVERY,
                resume=True, **KW,
            )
