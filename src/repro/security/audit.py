"""Sanitization auditor: checks the paper's C1/C2 conditions.

Section 1 defines data sanitization for a set of files F:

* **C1** -- after a file f is deleted, the storage system stores no
  content of f;
* **C2** -- after a file f is updated, the storage system keeps no *old*
  content of f.

Both are filters over the residue walk
(:meth:`~repro.checkers.residue.DeviceResidue.recovered`): only pages
that read back ``readable`` at the attacker boundary count, so data
behind a pLock/bLock is sanitized (the paper's central claim) while
data merely FTL-invalid on a plain chip is NOT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checkers.residue import DeviceResidue, block_at, plaintext
from repro.security.attacker import RawChipAttacker
from repro.ssd.device import SSD


@dataclass(frozen=True)
class Violation:
    """One recoverable page that should have been sanitized."""

    condition: str  # "C1" or "C2"
    file_tag: object
    gppa: int
    payload: object


@dataclass
class AuditReport:
    """Outcome of one audit pass."""

    violations: list[Violation] = field(default_factory=list)
    checked_files: int = 0
    checked_lpas: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations


class SanitizationAuditor:
    """Checks C1 (deleted files) and C2 (updated pages) via the attacker."""

    def __init__(self, ssd: SSD) -> None:
        self.ssd = ssd
        self.attacker = RawChipAttacker(ssd)

    # ------------------------------------------------------------------
    def audit_deleted_files(self, deleted_tags: set[object]) -> AuditReport:
        """C1: no content of any deleted file may be recoverable."""
        report = AuditReport(checked_files=len(deleted_tags))
        for page in DeviceResidue(self.ssd.ftl).recovered():
            if page.file_tag in deleted_tags:
                report.violations.append(
                    Violation("C1", page.file_tag, page.gppa, page.payload)
                )
        return report

    def audit_updated_lpas(
        self, live_versions: dict[int, object]
    ) -> AuditReport:
        """C2: each live LPA may be recoverable in its newest version only.

        ``live_versions`` maps LPA -> the payload the host last wrote
        (the version that is allowed to survive).
        """
        report = AuditReport(checked_lpas=len(live_versions))
        for page in DeviceResidue(self.ssd.ftl).recovered():
            lpa = page.lpa
            if lpa is None or lpa not in live_versions:
                continue
            if page.payload != live_versions[lpa]:
                report.violations.append(
                    Violation("C2", page.file_tag, page.gppa, page.payload)
                )
        return report

    # ------------------------------------------------------------------
    def exposure_summary(self) -> dict[str, int]:
        """How much of the device the attacker can read at all."""
        image = self.attacker.image_device()
        return {
            "readable_pages": len(image),
            "distinct_files": len(image.file_tags()),
        }


def collect_live_versions(
    ssd: SSD, lpas: set[int] | None = None
) -> dict[int, object]:
    """Ground truth: payload of each mapped LPA as the FTL would serve it.

    ``lpas`` restricts the collection, e.g. to the LPAs of files under
    the sanitization contract -- C2 does not cover ``O_INSEC`` data.
    """
    ftl = ssd.ftl
    out: dict[int, object] = {}
    candidates = lpas if lpas is not None else range(ftl.l2p.logical_pages)
    for lpa in candidates:
        gppa = ftl.l2p.lookup(lpa)
        if gppa < 0:
            continue
        block, offset = block_at(ftl, gppa)
        out[lpa] = plaintext(ftl, block.data[offset])
    return out
