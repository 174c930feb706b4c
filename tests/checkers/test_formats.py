"""Output formats (json/sarif) and run_lint exit-code wiring."""

from __future__ import annotations

import json
import textwrap

from repro.checkers.lint import Finding, run_lint
from repro.checkers.report import render_json, render_sarif


def _write(tmp_path, relpath: str, body: str):
    path = tmp_path.joinpath(*relpath.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def _finding(message="boom", line=3):
    return Finding(
        "SIM04", "error", "src/repro/flash/x.py", line, 5, message,
        hint="use a tolerance",
    )


DIRTY = """
    def f(x):
        return x == 1.0
"""


class TestJson:
    def test_document_shape(self):
        payload = json.loads(render_json([_finding()]))
        assert payload["version"] == 1
        assert payload["tool"] == "repro-lint"
        assert payload["summary"] == {
            "findings": 1, "errors": 1, "warnings": 0,
        }
        (finding,) = payload["findings"]
        assert finding["rule_id"] == "SIM04"
        assert finding["line"] == 3
        assert finding["hint"] == "use a tolerance"
        assert "baselined" not in payload


class TestSarif:
    def test_log_shape_and_rule_metadata(self):
        log = json.loads(render_sarif([_finding()]))
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        # the whole catalogue ships as metadata
        assert {"SIM03", "SIM07", "SIM13", "SIM14", "SIM16"} <= rule_ids
        assert "SIM10" not in rule_ids  # retired for a cross-process test
        (result,) = run["results"]
        assert result["ruleId"] == "SIM04"
        assert result["level"] == "error"
        assert "hint:" in result["message"]["text"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 3, "startColumn": 5}
        assert "baselineState" not in result


class TestRunLint:
    def test_sarif_out_file(self, tmp_path, capsys):
        _write(tmp_path, "repro/flash/x.py", DIRTY)
        out = tmp_path / "lint.sarif"
        code = run_lint([str(tmp_path)], fmt="sarif", out=str(out))
        assert code == 1
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"][0]["ruleId"] == "SIM04"
        # a human summary still goes to the console
        assert "finding" in capsys.readouterr().out

    def test_no_baseline_ignores_file(self, tmp_path, capsys, monkeypatch):
        # a leftover baseline file next to the tree or in the working
        # directory hides nothing: every finding gates
        _write(tmp_path, "repro/flash/x.py", DIRTY)
        stale = json.dumps({"version": 1, "fingerprints": {"SIM04": 1}})
        (tmp_path / ".lint-baseline.json").write_text(stale)
        monkeypatch.chdir(tmp_path)
        assert run_lint([str(tmp_path)]) == 1
        assert "x.py" in capsys.readouterr().out

    def test_bad_format_is_usage_error(self, tmp_path, capsys):
        _write(tmp_path, "repro/ok.py", "x = 1\n")
        assert run_lint([str(tmp_path)], fmt="yaml") == 2
        capsys.readouterr()

    def test_json_format_to_stdout(self, tmp_path, capsys):
        _write(tmp_path, "repro/ok.py", "x = 1\n")
        assert run_lint([str(tmp_path)], fmt="json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 0
