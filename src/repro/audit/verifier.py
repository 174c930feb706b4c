"""The adversarial side of the audit: refute the certificate.

Three independent passes, each producing structured
:class:`AuditFinding` records rather than booleans (DESIGN 3k threat
model):

1. :func:`verify_certificate` -- recompute every section checksum, walk
   the hash chain, and re-derive the HMAC seal.  A bit flipped anywhere
   in the artifact surfaces as a ``checksum-mismatch`` /
   ``chain-mismatch`` / ``bad-signature`` finding.
2. :func:`verify_events` -- replay the lifecycle rules over the raw
   trace, read as the bus's columns: simulated-time monotonicity of
   instants, per-category counts against the header's published
   totals, non-negative exposure windows, and zero lifecycle
   anomalies.  On a lossless trace (no drops, no strides) every one of
   these is exact, so a deleted, edited, or reordered record is caught;
   on a lossy trace the checks that depend on completeness degrade to
   an ``incomplete-evidence`` disclosure instead of false confidence.
3. :func:`verify_device` -- the forensic cross-check: image the chips
   through :class:`~repro.security.attacker.RawChipAttacker` (the
   Section 5.1 raw-chip adversary) and attempt recovery of every page
   the ledger claims sanitized: a readback the claimed method's residue
   rule (:mod:`repro.checkers.residue`) does not accept is a
   ``recoverable-sanitized-page``; a readable page the ledger never saw,
   or one whose LPA contradicts the ledger, is
   ``ledger-device-divergence``.

``AuditReport.ok`` is the one-bit outcome: no *fatal* findings.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from collections import Counter
from dataclasses import dataclass, field

from repro.audit.certificate import (
    CERT_FORMAT,
    DEFAULT_KEY,
    KEY_ID,
    sign,
)
from repro.audit.ledger import PageLedger
from repro.checkers.residue import DeviceResidue, accepts
from repro.checkpoint.codec import canonical_dumps, section_checksum
from repro.ssd.device import SSD
from repro.telemetry.events import TraceBus

#: trace categories the ledger replays; completeness checks cover these.
LEDGER_CATEGORIES = ("ftl.page", "ftl.sanitize", "ftl.flash")


@dataclass(frozen=True)
class AuditFinding:
    """One structured verification failure (or disclosure)."""

    code: str
    section: str
    detail: str
    fatal: bool = True

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "section": self.section,
            "detail": self.detail,
            "fatal": self.fatal,
        }


@dataclass
class AuditReport:
    """All findings from every pass that ran, plus what was checked."""

    findings: list[AuditFinding] = field(default_factory=list)
    checks: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(f.fatal for f in self.findings)

    def add(
        self, code: str, section: str, detail: str, fatal: bool = True
    ) -> None:
        self.findings.append(AuditFinding(code, section, detail, fatal))

    def checked(self, what: str, n: int = 1) -> None:
        self.checks[what] = self.checks.get(what, 0) + n

    def merge(self, other: AuditReport) -> None:
        self.findings.extend(other.findings)
        for what, n in other.checks.items():
            self.checked(what, n)

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "checks": dict(sorted(self.checks.items())),
            "findings": [f.to_dict() for f in self.findings],
        }


def evidence_complete(header: dict[str, object] | None) -> bool:
    """True when the trace retains every published ledger-relevant event."""
    if header is None:
        return False
    if header.get("dropped_events", 1) != 0:
        return False
    strides = header.get("sample_strides") or {}
    if isinstance(strides, dict) and any(
        int(n) > 1
        for cat, n in strides.items()
        if cat in LEDGER_CATEGORIES
    ):
        return False
    return True


# ---------------------------------------------------------------------------
# pass 1: the artifact itself
# ---------------------------------------------------------------------------
def verify_certificate(
    cert: dict[str, object], key: bytes = DEFAULT_KEY
) -> AuditReport:
    """Recompute checksums, hash chain, and seal of one certificate."""
    report = AuditReport()
    if not isinstance(cert, dict):
        report.add("bad-format", "certificate", "certificate is not a JSON object")
        return report
    if cert.get("format") != CERT_FORMAT:
        report.add(
            "bad-format",
            "certificate",
            f"unknown certificate format {cert.get('format')!r}",
        )
        return report
    if cert.get("key_id") != KEY_ID:
        report.add(
            "bad-key-id", "certificate", f"unknown key id {cert.get('key_id')!r}"
        )
    sections = cert.get("sections")
    chain = cert.get("chain")
    if not isinstance(sections, dict) or not isinstance(chain, list):
        report.add("bad-format", "certificate", "missing sections or chain")
        return report
    if not all(isinstance(link, dict) for link in chain):
        report.add("bad-format", "certificate", "chain link is not a JSON object")
        return report
    chained_names = [link.get("section") for link in chain]
    if chained_names != sorted(sections):
        report.add(
            "chain-mismatch",
            "certificate",
            f"chain covers {chained_names}, sections are {sorted(sections)}",
        )
        return report
    tip = hashlib.sha256(f"{CERT_FORMAT}:{KEY_ID}".encode()).hexdigest()
    for link in chain:
        name = link["section"]
        expected = section_checksum(canonical_dumps(sections[name]))
        report.checked("certificate.sections")
        if link.get("checksum") != expected:
            report.add(
                "checksum-mismatch",
                name,
                f"section {name!r} checksum {link.get('checksum')!r} != "
                f"recomputed {expected!r}",
            )
        tip = hashlib.sha256((tip + expected).encode()).hexdigest()
        if link.get("chained") != tip:
            report.add(
                "chain-mismatch",
                name,
                f"hash chain diverges at section {name!r}",
            )
    expected_sig = sign(tip, key)
    if not hmac_mod.compare_digest(
        str(cert.get("signature", "")), expected_sig
    ):
        report.add(
            "bad-signature",
            "certificate",
            "HMAC seal does not match the recomputed chain tip",
        )
    return report


# ---------------------------------------------------------------------------
# pass 2: the raw event stream
# ---------------------------------------------------------------------------
def verify_events(
    header: dict[str, object] | None,
    bus: TraceBus,
    ledger: PageLedger,
) -> AuditReport:
    """Replay-level checks: ordering, counts, windows, lifecycle rules."""
    report = AuditReport()
    complete = evidence_complete(header)
    if not complete:
        report.add(
            "incomplete-evidence",
            "evidence",
            "trace lost events to ring-buffer capacity or sampling "
            "(or has no disclosure header); completeness checks degraded",
            fatal=False,
        )
    columns = bus.columns()
    kinds = columns.kinds

    # simulated-time monotonicity of instants (publication order is
    # chronological for ph="i"; span records are stamped at start time).
    instant = [spec[2] == "i" for spec in kinds]
    ordered = 0
    last_ts = None
    for index, ts_us in zip(columns.kind, columns.ts_us):
        if not instant[index]:
            continue
        ordered += 1
        if last_ts is not None and ts_us < last_ts:
            report.add(
                "event-order-violation",
                "events",
                f"instant {kinds[index][0]!r} at t={ts_us} follows "
                f"t={last_ts} (simulated time ran backwards)",
            )
            break
        last_ts = ts_us
    if ordered:
        report.checked("events.ordered", ordered)

    # per-category counts against the header's published totals.
    if header is not None and complete:
        published = header.get("published") or {}
        seen: dict[str, int] = {}
        for index, n in Counter(columns.kind).items():
            cat = kinds[index][1]
            seen[cat] = seen.get(cat, 0) + n
        for cat in LEDGER_CATEGORIES:
            report.checked("events.counted")
            expected = int(published.get(cat, 0)) if isinstance(published, dict) else 0
            if seen.get(cat, 0) != expected:
                report.add(
                    "event-count-mismatch",
                    "events",
                    f"category {cat!r}: header published {expected} "
                    f"events, trace carries {seen.get(cat, 0)}",
                )

    # lifecycle replay results.
    for kind, n in sorted(ledger.anomalies.items()):
        report.add(
            f"lifecycle-violation:{kind}",
            "ledger",
            f"{n} {kind} event(s) during replay",
            fatal=complete,
        )
    for gen in ledger.generations:
        window = gen.exposure_us
        if window is not None:
            report.checked("events.windows")
            if window < 0:
                report.add(
                    "negative-exposure-window",
                    "ledger",
                    f"gppa {gen.gppa}: sanitize at t={gen.sanitize_ts} "
                    f"precedes invalidate at t={gen.invalidate_ts}",
                )
    return report


# ---------------------------------------------------------------------------
# pass 3: the physical device
# ---------------------------------------------------------------------------
def verify_device(ledger: PageLedger, ssd: SSD, complete: bool = True) -> AuditReport:
    """Forensic cross-check of the ledger against the final chip state."""
    report = AuditReport()
    device = DeviceResidue(ssd.ftl)
    last_gen = {gen.gppa: gen for gen in ledger.generations}
    for gppa, gen in sorted(last_gen.items()):
        recovered = device.image.get(gppa)
        if gen.closed:
            report.checked("device.sanitized_pages")
            readback = device.readback(gppa)
            if not accepts(str(gen.sanitize_method), readback.residue):
                report.add(
                    "recoverable-sanitized-page",
                    "device",
                    f"gppa {gppa}: ledger claims {gen.sanitize_method!r} at "
                    f"t={gen.sanitize_ts} but the raw-chip attacker still "
                    f"reads {readback.data!r}",
                )
        elif recovered is not None and recovered.lpa is not None:
            # open generation: a readable host payload must agree with
            # the ledger on which logical page lives here.
            report.checked("device.live_pages")
            if recovered.lpa != gen.lpa:
                report.add(
                    "ledger-device-divergence",
                    "device",
                    f"gppa {gppa}: device holds lpa {recovered.lpa}, "
                    f"ledger recorded lpa {gen.lpa}",
                )
    if complete:
        for gppa in sorted(set(device.image) - set(last_gen)):
            report.add(
                "ledger-device-divergence",
                "device",
                f"gppa {gppa}: readable page never appears in the ledger",
            )
    return report


# ---------------------------------------------------------------------------
def verify_all(
    cert: dict[str, object],
    header: dict[str, object] | None,
    bus: TraceBus,
    ledger: PageLedger,
    ssd: SSD | None = None,
    key: bytes = DEFAULT_KEY,
) -> AuditReport:
    """Run every applicable pass and cross-check cert against ledger."""
    report = verify_certificate(cert, key=key)
    report.merge(verify_events(header, bus, ledger))

    # the certificate's ledger digest must match the trace we replayed:
    # a trace edited *after* issuance diverges here even if the edit is
    # internally consistent.
    sections = cert.get("sections") if isinstance(cert, dict) else None
    if isinstance(sections, dict):
        claimed = sections.get("ledger", {})
        if isinstance(claimed, dict):
            report.checked("certificate.ledger_digest")
            if claimed.get("digest") != ledger.digest():
                report.add(
                    "ledger-digest-mismatch",
                    "ledger",
                    "certificate ledger digest does not match the "
                    "digest recomputed from the trace",
                )
    if ssd is not None:
        report.merge(
            verify_device(ledger, ssd, complete=evidence_complete(header))
        )
    return report
