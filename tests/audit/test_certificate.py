"""Certificate integrity: chain math, seal, and byte-determinism."""

from __future__ import annotations

import copy
import json

from repro.audit import audit_sim_result
from repro.audit.certificate import (
    CERT_FORMAT,
    build_certificate,
    certificate_text,
)
from repro.audit.verifier import verify_certificate
from repro.analysis.tracing import run_traced_study
from repro.ssd import scaled_config

SECTIONS = {
    "run": {"workload": "MailServer", "variant": "secSSD", "seed": 7},
    "ledger": {"digest": "abc123", "generations": 10},
    "exposure": {"count": 3, "p99_us": 300.0},
}


def _codes(report):
    return sorted({f.code for f in report.findings})


class TestBuildVerify:
    def test_fresh_certificate_verifies(self):
        report = verify_certificate(build_certificate(SECTIONS))
        assert report.ok
        assert report.checks["certificate.sections"] == len(SECTIONS)

    def test_chain_covers_sections_in_sorted_order(self):
        cert = build_certificate(SECTIONS)
        assert [link["section"] for link in cert["chain"]] == sorted(SECTIONS)
        assert cert["format"] == CERT_FORMAT

    def test_empty_sections_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            build_certificate({})


class TestTamperedArtifact:
    def test_edited_section_breaks_checksum_chain_and_seal(self):
        cert = copy.deepcopy(build_certificate(SECTIONS))
        cert["sections"]["ledger"]["generations"] = 11
        report = verify_certificate(cert)
        assert not report.ok
        assert {"checksum-mismatch", "chain-mismatch", "bad-signature"} <= set(
            _codes(report)
        )

    def test_edited_chain_link_detected(self):
        cert = copy.deepcopy(build_certificate(SECTIONS))
        cert["chain"][0]["checksum"] = "0" * 64
        assert "checksum-mismatch" in _codes(verify_certificate(cert))

    def test_dropped_section_breaks_coverage(self):
        cert = copy.deepcopy(build_certificate(SECTIONS))
        del cert["sections"]["exposure"]
        report = verify_certificate(cert)
        assert not report.ok
        assert "chain-mismatch" in _codes(report)

    def test_wrong_key_breaks_only_the_seal(self):
        report = verify_certificate(build_certificate(SECTIONS), key=b"imposter")
        assert _codes(report) == ["bad-signature"]

    def test_unknown_format_rejected_outright(self):
        cert = copy.deepcopy(build_certificate(SECTIONS))
        cert["format"] = "evanesco-cert/999"
        assert _codes(verify_certificate(cert)) == ["bad-format"]

    def test_non_object_certificate_is_bad_format(self):
        assert _codes(verify_certificate([SECTIONS])) == ["bad-format"]

    def test_non_object_chain_link_is_bad_format(self):
        cert = copy.deepcopy(build_certificate(SECTIONS))
        cert["chain"][1] = "run"
        assert _codes(verify_certificate(cert)) == ["bad-format"]


class TestByteDeterminism:
    def test_independent_identical_runs_issue_identical_bytes(self):
        config = scaled_config(blocks_per_chip=8, wordlines_per_block=4)

        def issue():
            (run,) = run_traced_study(
                config, "MailServer", ("secSSD",), seed=11, capacity=1 << 20
            ).values()
            return audit_sim_result(run.sim, run.telemetry, config, seed=11)

        first, second = issue(), issue()
        assert first.ok and second.ok
        assert certificate_text(first.certificate) == certificate_text(
            second.certificate
        )

    def test_text_is_canonical_json(self, audited_runs):
        cert = audited_runs["secSSD"][1].certificate
        text = certificate_text(cert)
        assert text.endswith("\n")
        assert json.loads(text) == cert
