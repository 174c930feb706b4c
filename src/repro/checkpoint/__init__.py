"""Versioned, crash-consistent device-state checkpointing.

The simulator's campaigns (``repro simulate``, ``repro torture``)
historically ran to completion or not at all; ROADMAP
item 3 names the blocker that removes: lifetime-scale studies need a
durable, restartable representation of *full* device state.  This
package provides it in four pieces:

* :mod:`repro.checkpoint.codec` -- a tagged, versioned JSON codec that
  round-trips every state value the simulator holds (tuples vs. lists,
  sets, deques, enums, ``random.Random`` streams, NumPy generators and
  arrays) byte-exactly, with a canonical serialization for checksums;
* :mod:`repro.checkpoint.store` -- generation directories written via
  write-temp/fsync/atomic-rename with per-section SHA-256 checksums and
  a manifest, which also lists the chain of append-only segment files
  an incrementally written section (the telemetry trace) needs; corrupt
  generations (truncated, torn, bit-flipped, stale version) are
  detected, quarantined, and recovery falls back to the previous good
  generation with a structured report;
* :mod:`repro.checkpoint.device` -- snapshot/restore of one SSD +
  engine pair, plus the restore-time invariant audit that replays the
  runtime sanitizer's checks (L2P bijection, block counters,
  unreadability probes on locked and sanitized-stale pages) before any
  operation executes on restored state;
* :mod:`repro.checkpoint.campaign` -- resumable simulation campaigns:
  a request stream chunked into checkpoint windows at quiescent engine
  boundaries, with the determinism contract that an interrupted and
  resumed campaign is byte-identical to the same campaign run
  uninterrupted (see DESIGN.md section 3i).

This package sits outside the ``flash < ftl < ssd < sim < telemetry <
analysis`` layer stack (like ``checkers``): it reaches *down* into
every layer to collect state but is imported only by campaigns, the
CLI, and the analysis harnesses.  Rule SIM15 keeps all serialization
decisions here: ``pickle`` and friends are banned everywhere else.
"""

from repro.checkpoint.codec import (
    canonical_dumps,
    decode,
    encode,
    section_checksum,
)
from repro.checkpoint.store import (
    CheckpointError,
    CheckpointStore,
    CorruptionReport,
    LoadReport,
    StoreCrashInjected,
)
from repro.checkpoint.device import (
    CheckpointAuditError,
    restore_audit,
    restore_device,
    snapshot_device,
)
from repro.checkpoint.campaign import (
    CampaignMismatchError,
    run_chunked_simulation,
)

__all__ = [
    "CampaignMismatchError",
    "CheckpointAuditError",
    "CheckpointError",
    "CheckpointStore",
    "CorruptionReport",
    "LoadReport",
    "StoreCrashInjected",
    "canonical_dumps",
    "decode",
    "encode",
    "restore_audit",
    "restore_device",
    "run_chunked_simulation",
    "section_checksum",
    "snapshot_device",
]
