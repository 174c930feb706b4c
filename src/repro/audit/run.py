"""Audit orchestration: traces or live runs in, certificates out.

Two entry points, one per evidence source:

* :func:`audit_sim_result` -- in-process, right after a traced
  simulation: the event stream is still on the bus and the simulated
  device is still alive, so the certificate gets the full treatment
  including the raw-chip forensic cross-check.  This is what the
  ``--cert-out`` flags of ``repro simulate`` / ``repro torture`` and
  the fleet shard workers call.
* :func:`audit_trace_file` -- offline, from an archived JSONL trace
  (``repro audit trace.jsonl``): certificate + event-level
  verification; the device no longer exists, so the forensic pass is
  skipped and the certificate says so (``device_verified: false``).
  Pass a previously issued certificate to check the archive against it
  -- the ledger-digest cross-check catches post-issuance edits.

Certificates must be byte-deterministic (serial == ``--jobs N`` ==
kill+resume), so audits run their own large, unsampled telemetry
session (:func:`audit_telemetry`): a lossy bus would make the ledger
depend on ring-buffer capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.audit.certificate import build_certificate, DEFAULT_KEY
from repro.audit.ledger import PageLedger, build_ledger
from repro.audit.verifier import (
    AuditReport,
    evidence_complete,
    verify_all,
)
from repro.checkpoint.codec import canonical_dumps, section_checksum
from repro.sim.runner import SimResult
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.telemetry import Telemetry, TraceBus
from repro.telemetry.export import read_jsonl, trace_header

#: ring capacity for audit-grade telemetry: large enough that no page
#: event is ever evicted at the scales the CLI exposes (a lossy bus
#: would poison the ledger and every certificate derived from it).
AUDIT_CAPACITY = 1 << 22


def audit_telemetry(capacity: int = AUDIT_CAPACITY) -> Telemetry:
    """A telemetry session fit for evidence: big ring, no sampling."""
    return Telemetry(capacity=capacity, sample=None)


def config_fingerprint(config: SSDConfig) -> str:
    """Short deterministic fingerprint of the device configuration."""
    geometry = config.geometry
    payload = {
        "n_channels": config.n_channels,
        "chips_per_channel": config.chips_per_channel,
        "blocks_per_chip": geometry.blocks_per_chip,
        "wordlines_per_block": geometry.wordlines_per_block,
        "cell_type": int(geometry.cell_type),
        "page_size_bytes": geometry.page_size_bytes,
        "overprovision": config.overprovision,
        "gc_policy": config.gc_policy,
        "t_prog_us": config.t_prog_us,
        "t_erase_us": config.t_erase_us,
        "t_plock_us": config.t_plock_us,
        "t_block_lock_us": config.t_block_lock_us,
        "t_scrub_us": config.t_scrub_us,
    }
    return section_checksum(canonical_dumps(payload))[:12]


@dataclass
class AuditResult:
    """One audited run: ledger, certificate, and the verifier's verdict."""

    header: dict[str, object] | None
    ledger: PageLedger
    certificate: dict[str, object]
    report: AuditReport

    @property
    def ok(self) -> bool:
        return self.report.ok

    def to_dict(self) -> dict[str, object]:
        return {
            "certificate": self.certificate,
            "report": self.report.to_dict(),
        }


_RUN_META_KEYS = (
    "workload",
    "variant",
    "seed",
    "pages_per_block",
    "config_fingerprint",
    "tenant",
    "device",
)


def build_sections(
    header: dict[str, object],
    ledger: PageLedger,
    device_verified: bool,
) -> dict[str, object]:
    """The four evidence sections the certificate chains over."""
    return {
        "run": {
            key: header[key] for key in _RUN_META_KEYS if key in header
        },
        "evidence": {
            "header": dict(header),
            "complete": evidence_complete(header),
            "device_verified": device_verified,
        },
        "ledger": ledger.summary(),
        "exposure": ledger.exposure_summary(),
    }


def audit_events(
    header: dict[str, object],
    bus: TraceBus,
    ssd: SSD | None = None,
    certificate: dict[str, object] | None = None,
    key: bytes = DEFAULT_KEY,
) -> AuditResult:
    """Core pipeline: events -> ledger -> certificate -> verification.

    ``bus`` holds the evidence: a live run's own bus, one restored from
    checkpoint segments, or an archive read by :func:`read_jsonl`.  With
    ``certificate`` the given artifact is verified against the trace
    instead of issuing a fresh one.
    """
    pages_per_block = header.get("pages_per_block")
    if not isinstance(pages_per_block, int):
        raise ValueError(
            "trace header lacks 'pages_per_block'; the ledger cannot "
            "expand block erases without the geometry"
        )
    latency = header.get("sanitize_latency_us")
    ledger = build_ledger(
        bus,
        pages_per_block,
        sanitize_latency_us=latency if isinstance(latency, dict) else None,
    )
    if certificate is None:
        certificate = build_certificate(
            build_sections(header, ledger, device_verified=ssd is not None),
            key=key,
        )
    report = verify_all(certificate, header, bus, ledger, ssd=ssd, key=key)
    return AuditResult(
        header=header, ledger=ledger, certificate=certificate, report=report
    )


def audit_live_run(
    telemetry: Telemetry,
    config: SSDConfig,
    workload: str,
    variant: str,
    ssd: SSD | None = None,
    seed: int | None = None,
    key: bytes = DEFAULT_KEY,
    **extra_meta: object,
) -> AuditResult:
    """Audit any live traced run: the seam under :func:`audit_sim_result`.

    Callers that drive the device directly (the torture sweep's faulted
    replays have no :class:`~repro.sim.runner.SimResult`) pass the bare
    pieces; with ``ssd`` the raw-chip forensic cross-check runs too.
    """
    meta: dict[str, object] = {
        "workload": workload,
        "variant": variant,
        "pages_per_block": config.geometry.pages_per_block,
        "config_fingerprint": config_fingerprint(config),
        "sanitize_latency_us": config.sanitize_latency_us(),
    }
    if seed is not None:
        meta["seed"] = seed
    meta.update(extra_meta)
    header = trace_header(telemetry.bus, **meta)
    return audit_events(header, telemetry.bus, ssd=ssd, key=key)


def audit_sim_result(
    sim: SimResult,
    telemetry: Telemetry,
    config: SSDConfig,
    seed: int | None = None,
    probe_device: bool = True,
    key: bytes = DEFAULT_KEY,
    **extra_meta: object,
) -> AuditResult:
    """Audit a just-finished traced simulation, device probe included."""
    return audit_live_run(
        telemetry,
        config,
        sim.workload,
        sim.variant,
        ssd=sim.device if probe_device else None,
        seed=seed,
        key=key,
        **extra_meta,
    )


def audit_trace_file(
    path: str | Path,
    certificate: dict[str, object] | None = None,
    pages_per_block: int | None = None,
    key: bytes = DEFAULT_KEY,
) -> AuditResult:
    """Audit an archived JSONL trace (no device; forensic pass skipped)."""
    header, bus = read_jsonl(path)
    if header is None:
        if pages_per_block is None:
            raise ValueError(
                f"{path}: headerless trace; pass the device geometry "
                "(pages per block) explicitly"
            )
        header = {"pages_per_block": pages_per_block}
    elif pages_per_block is not None:
        header = {**header, "pages_per_block": pages_per_block}
    return audit_events(
        header, bus, ssd=None, certificate=certificate, key=key
    )
