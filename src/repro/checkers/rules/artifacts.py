"""SIM16: run evidence goes through sanctioned serializers only.

The audit layer's value proposition is that every artifact can be
re-derived and re-verified byte for byte: JSONL event streams lead with
a disclosure header (the :mod:`repro.telemetry.export` writers),
certificates and checkpoints chain sha256 checksums over canonical
sorted-key JSON (:func:`repro.checkpoint.codec.canonical_dumps`).  An
ad-hoc ``json.dump(...)`` bypasses both: no sorted-keys contract, no
checksum, no header -- and its bytes silently depend on dict
construction order and default separators, which is exactly how a
"deterministic" artifact drifts between Python versions.

This rule flags direct ``json.dump``/``json.dumps`` call sites (the
writing side only -- reading stays free) outside the two sanctioned
writer modules: every evidence path serializes through
``canonical_dumps``/``report_dumps`` or a telemetry exporter.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.checkers.lint import FileContext, Finding, LintRule

#: modules allowed to call ``json.dump(s)`` directly: the telemetry
#: exporters (headered JSONL / Chrome traces) and the checkpoint codec
#: (canonical sorted-key JSON with embedded checksums).
SANCTIONED = (
    ("telemetry", "export.py"),
    ("checkpoint",),
)


class ArtifactSerializationRule(LintRule):
    rule_id = "SIM16"
    severity = "error"
    description = (
        "ad-hoc json.dump/json.dumps outside the sanctioned "
        "artifact writers"
    )
    hint = (
        "serialize run evidence through "
        "repro.checkpoint.codec.canonical_dumps (sorted keys, "
        "checksummable) or a repro.telemetry.export writer "
        "(disclosure header included); ad-hoc json bytes are not "
        "re-verifiable"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.rel_parts == ctx.path.parts:  # outside the package
            return False
        return not any(
            ctx.rel_parts[: len(prefix)] == prefix for prefix in SANCTIONED
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name in ("dump", "dumps")
                ]
                if bad:
                    yield self.finding(
                        ctx,
                        node,
                        f"{self.description}: imports json.{bad[0]} "
                        "directly",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{self.description}: json.{func.attr}(...)",
                )
