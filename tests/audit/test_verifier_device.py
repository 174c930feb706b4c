"""Forensic pass: the ledger's claims against the raw-chip image."""

from __future__ import annotations

from repro.analysis.tracing import run_traced_study
from repro.audit import audit_sim_result
from repro.audit.ledger import PageGeneration, PageLedger
from repro.audit.verifier import verify_device
from repro.ftl.request import write
from repro.security.attacker import RawChipAttacker
from repro.ssd import SSD, scaled_config


def _codes(report):
    return sorted({f.code for f in report.findings})


def _readable_host_page(ssd):
    for page in RawChipAttacker(ssd).image_device().pages:
        if page.lpa is not None:
            return page
    raise AssertionError("device image holds no readable host page")


class TestDeviceCrossCheck:
    def test_secssd_probe_covers_sanitized_and_live_pages(self, audited_runs):
        _, audit = audited_runs["secSSD"]
        assert audit.ok
        assert audit.report.checks["device.sanitized_pages"] > 0
        assert audit.report.checks["device.live_pages"] > 0
        assert audit.certificate["sections"]["evidence"]["device_verified"]

    def test_fabricated_plock_claim_on_readable_page_refuted(self, audited_runs):
        # a ledger asserting pLock destroyed a page the attacker can
        # still read is exactly the lie the forensic pass exists for.
        run, _ = audited_runs["erSSD"]
        ssd = run.sim.device
        page = _readable_host_page(ssd)
        ledger = PageLedger(pages_per_block=4)
        ledger.generations.append(
            PageGeneration(
                gppa=page.gppa,
                lpa=page.lpa,
                secure=True,
                program_ts=0.0,
                invalidate_ts=1.0,
                invalidate_reason="host-trim",
                sanitize_ts=2.0,
                sanitize_method="plock",
            )
        )
        report = verify_device(ledger, ssd, complete=False)
        assert not report.ok
        assert "recoverable-sanitized-page" in _codes(report)

    def test_lpa_contradiction_is_divergence(self, audited_runs):
        run, _ = audited_runs["erSSD"]
        ssd = run.sim.device
        page = _readable_host_page(ssd)
        ledger = PageLedger(pages_per_block=4)
        ledger.generations.append(
            PageGeneration(
                gppa=page.gppa,
                lpa=page.lpa + 1,  # ledger disagrees about the tenant data
                secure=False,
                program_ts=0.0,
            )
        )
        report = verify_device(ledger, ssd, complete=False)
        assert "ledger-device-divergence" in _codes(report)

    def test_unledgered_readable_pages_fail_complete_evidence(self, audited_runs):
        run, _ = audited_runs["erSSD"]
        report = verify_device(
            PageLedger(pages_per_block=4), run.sim.device, complete=True
        )
        assert not report.ok
        assert "ledger-device-divergence" in _codes(report)


class TestKeyDeletionResidue:
    def test_cryptssd_ciphertext_residue_is_acceptable(self):
        # key deletion leaves ciphertext on the chips; the verifier must
        # accept that residue (and only that residue) for key_delete.
        config = scaled_config(blocks_per_chip=8, wordlines_per_block=4)
        (run,) = run_traced_study(
            config, "MailServer", ("cryptSSD",), seed=5, capacity=1 << 20
        ).values()
        audit = audit_sim_result(run.sim, run.telemetry, config, seed=5)
        assert audit.ok, [f.to_dict() for f in audit.report.findings]
        assert audit.ledger.sanitized_by_method.get("key_delete", 0) > 0

    def test_key_delete_claim_on_decryptable_ciphertext_refuted(self):
        # the key survived: to the Section 5.1 attacker this "residue" is
        # the plaintext, so a key_delete claim on it is a lie.
        config = scaled_config(blocks_per_chip=8, wordlines_per_block=4)
        ssd = SSD(config, "cryptSSD")
        for lpa in range(4):
            ssd.submit(write(lpa, secure=True))
        ledger = PageLedger(pages_per_block=config.geometry.pages_per_block)
        ledger.generations.append(
            PageGeneration(
                gppa=ssd.ftl.mapped_gppa(0),
                lpa=0,
                secure=True,
                program_ts=0.0,
                invalidate_ts=1.0,
                invalidate_reason="host-trim",
                sanitize_ts=2.0,
                sanitize_method="key_delete",
            )
        )
        report = verify_device(ledger, ssd, complete=False)
        assert not report.ok
        assert _codes(report) == ["recoverable-sanitized-page"]
