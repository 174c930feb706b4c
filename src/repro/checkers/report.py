"""Machine-readable lint reports: JSON and SARIF 2.1.0.

The SARIF output follows the subset of the 2.1.0 schema that code
hosts actually render: one run, rule metadata on the tool driver, one
result per finding with a physical location.  Both documents go
through :func:`~repro.checkpoint.codec.report_dumps` (sorted keys,
two-space indent, trailing newline).
"""

from __future__ import annotations

from repro.checkers.lint import Finding, default_rules
from repro.checkpoint.codec import report_dumps

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-lint"

_SARIF_LEVEL = {"error": "error", "warning": "warning"}


def _finding_dict(finding: Finding) -> dict:
    out = {
        "rule_id": finding.rule_id,
        "severity": finding.severity,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
    }
    if finding.hint:
        out["hint"] = finding.hint
    return out


def render_json(findings: list[Finding]) -> str:
    """Stable JSON document for scripting against lint output."""
    payload = {
        "version": 1,
        "tool": TOOL_NAME,
        "summary": {
            "findings": len(findings),
            "errors": sum(1 for f in findings if f.severity == "error"),
            "warnings": sum(1 for f in findings if f.severity == "warning"),
        },
        "findings": [_finding_dict(f) for f in findings],
    }
    return report_dumps(payload)


def _sarif_result(finding: Finding) -> dict:
    message = finding.message
    if finding.hint:
        message = f"{message} (hint: {finding.hint})"
    return {
        "ruleId": finding.rule_id,
        "level": _SARIF_LEVEL.get(finding.severity, "warning"),
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": max(finding.col, 1),
                    },
                }
            }
        ],
    }


def render_sarif(findings: list[Finding]) -> str:
    """SARIF 2.1.0 log with rule metadata."""
    rules_meta = []
    seen: set[str] = set()
    for rule in default_rules():
        if rule.rule_id in seen:
            continue
        seen.add(rule.rule_id)
        rules_meta.append(
            {
                "id": rule.rule_id,
                "shortDescription": {"text": rule.description},
                "help": {"text": rule.hint},
                "defaultConfiguration": {
                    "level": _SARIF_LEVEL.get(rule.severity, "warning")
                },
            }
        )
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": (
                            "https://example.invalid/repro-lint"
                        ),
                        "rules": rules_meta,
                    }
                },
                "results": [_sarif_result(f) for f in findings],
            }
        ],
    }
    return report_dumps(log)
