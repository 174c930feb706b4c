"""Baseline file: fingerprints, round-trip, count-budget split."""

from __future__ import annotations

import json

import pytest

from repro.checkers.baseline import (
    Baseline,
    fingerprint,
    normalize_path,
)
from repro.checkers.lint import Finding


def _finding(path="src/repro/ftl/base.py", line=10, message="boom",
             rule_id="SIM14"):
    return Finding(rule_id, "error", path, line, 1, message)


class TestNormalizePath:
    def test_strips_to_last_repro_segment(self):
        assert normalize_path("/home/ci/src/repro/ftl/base.py") == (
            "repro/ftl/base.py"
        )

    def test_no_repro_segment_keeps_path(self):
        assert normalize_path("scripts/tool.py") == "scripts/tool.py"

    def test_machine_portable(self):
        a = normalize_path("/builder/a/src/repro/sim/engine.py")
        b = normalize_path("/laptop/work/src/repro/sim/engine.py")
        assert a == b


class TestFingerprint:
    def test_line_numbers_do_not_matter(self):
        # baselines survive unrelated edits that shift lines
        assert fingerprint(_finding(line=10)) == fingerprint(_finding(line=99))

    def test_message_and_rule_matter(self):
        assert fingerprint(_finding(message="a")) != fingerprint(
            _finding(message="b")
        )
        assert fingerprint(_finding(rule_id="SIM07")) != fingerprint(
            _finding(rule_id="SIM14")
        )


class TestRoundTrip:
    def test_dump_then_load(self, tmp_path):
        baseline = Baseline.from_findings([_finding(), _finding(line=20)])
        path = tmp_path / "b.json"
        baseline.dump(path)
        loaded = Baseline.load(path)
        assert loaded.fingerprints == baseline.fingerprints
        # identical findings collapse into one fingerprint with count 2
        assert sum(loaded.fingerprints.values()) == 2

    def test_dump_is_stable_json(self, tmp_path):
        path = tmp_path / "b.json"
        Baseline.from_findings([_finding()]).dump(path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert path.read_text().endswith("\n")

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert baseline.fingerprints == {}

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"version": 99, "fingerprints": {}}')
        with pytest.raises(ValueError):
            Baseline.load(path)


class TestSplit:
    def test_known_findings_are_accepted(self):
        baseline = Baseline.from_findings([_finding()])
        new, accepted = baseline.split([_finding(line=42)])
        assert new == []
        assert len(accepted) == 1

    def test_unknown_findings_are_new(self):
        baseline = Baseline.from_findings([_finding()])
        new, accepted = baseline.split([_finding(message="different")])
        assert len(new) == 1 and accepted == []

    def test_count_budget_is_consumed(self):
        # one baselined occurrence does not absolve two
        baseline = Baseline.from_findings([_finding()])
        new, accepted = baseline.split([_finding(), _finding(line=50)])
        assert len(accepted) == 1
        assert len(new) == 1
