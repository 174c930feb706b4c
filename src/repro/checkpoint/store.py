"""Crash-consistent generation store for device checkpoints.

One checkpoint *generation* is a directory::

    <root>/
      campaign.json            # campaign manifest (params fingerprint)
      gen-000001/
        MANIFEST.json          # format version, section checksums, chains
        ftl.json               # one file per state section
        chips.json
        ...
        events.segment.json    # the events appended since gen 0
      gen-000002/
        events.segment.json    # only the events appended since gen 1
      quarantine/
        gen-000002.bad-checksum/   # corrupt generations moved, not deleted

A section whose state is an append-only stream (the telemetry trace) is
written as a :class:`Segment` -- only what was appended since the
previous generation -- and the manifest lists the *chain* of segment
files, oldest first, that together hold what the stream still retains.
A segment file is immutable and lives in the generation that wrote it,
so a later generation's chain reaches back into earlier directories; a
segment that is missing or corrupt fails every generation whose chain
lists it.

The write protocol is the classic journaling dance:

1. write every section and segment into ``gen-NNNNNN.tmp/`` (write,
   flush, fsync);
2. write ``MANIFEST.json`` *last* -- a directory without a manifest is
   by definition torn;
3. fsync the tmp directory, then atomically ``os.rename`` it into
   place, then fsync the parent so the rename itself is durable.

A crash at any point leaves either (a) the previous generations intact
and a stray ``*.tmp`` directory, or (b) the fully-renamed new
generation.  :meth:`CheckpointStore.latest_good` quarantines stray tmp
directories as torn writes, validates manifests and section checksums
newest-first, quarantines anything corrupt (truncated, bit-flipped,
missing sections, stale format version) with a structured
:class:`CorruptionReport`, and falls back to the newest generation that
validates.  Only when *no* generation survives does it raise
:class:`CheckpointError` -- carrying every report, so the caller can
render a diagnosis instead of a traceback.

``_crash_after`` is the torture hook: naming a protocol point (e.g.
``"section:ftl"``, ``"segment:events"`` or ``"rename"``) makes the
next write raise :class:`StoreCrashInjected` at exactly that point,
leaving the same on-disk state a power cut there would.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.checkpoint.codec import (
    CodecError,
    canonical_dumps,
    decode,
    encode,
    section_checksum,
)

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointStore",
    "CorruptionReport",
    "LoadReport",
    "Segment",
    "StoreCrashInjected",
]

#: bump on any incompatible change to the manifest or codec format.
#: v2: the engine section grew the sanitization-backlog series
#: (``sanitize_backlog`` / ``sanitize_backlog_us``); v1 snapshots lack
#: the keys and must be quarantined as stale, not crash the restore.
#: v3: each chip's pAP payload stores only its locked pages, as flat
#: columns of lock day, programmed-cell count and the smallest flip
#: thresholds (no per-page ndarrays).
#: v4: the telemetry events are append-only segments listed in the
#: manifest's ``chains``, and each block stores its pages as columns.
#: v5: chip state drops its ``stats`` key (chips keep no cost model).
#: v6: traced ``fifo`` engines take the calendar path, so the events
#: segments hold ``sim.service`` spans in reservation order and the
#: engine's ``latency`` lists are in calendar completion order.
#: v7: no ``worklog`` section (the device keeps no per-request log),
#: and the ``telemetry`` section holds only the trace bus's state.
#: v8: the allocator keeps one open-block cursor per chip (no
#: ``streams`` map), and ``campaign.json``'s ``config`` drops the GC
#: stream switch and the five FTL settings that became constants.
FORMAT_VERSION = 8

_MANIFEST = "MANIFEST.json"
_GEN_PREFIX = "gen-"
_CAMPAIGN = "campaign.json"
_SEGMENT = ".segment.json"


class StoreCrashInjected(RuntimeError):
    """Raised by the ``_crash_after`` torture hook mid-write."""


@dataclass(frozen=True)
class CorruptionReport:
    """One generation found corrupt, and what was done about it."""

    generation: int
    reason: str
    detail: str
    quarantined_to: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "generation": self.generation,
            "reason": self.reason,
            "detail": self.detail,
            "quarantined_to": self.quarantined_to,
        }


@dataclass(frozen=True)
class Segment:
    """The new slice of an append-only stream, as a section's value.

    ``payload`` holds the stream items with indices ``first`` to
    ``first + count - 1``; ``live_from`` is the oldest index the stream
    still holds.  A generation lists the payload at the end of the
    section's chain and drops every older segment that ends at or
    before ``live_from``.  Loading returns the chain's payloads, oldest
    first, as that section's value.
    """

    first: int
    count: int
    live_from: int
    payload: Any


@dataclass
class LoadReport:
    """A successfully loaded generation plus any corruption en route."""

    generation: int
    sections: dict[str, Any]
    meta: dict[str, Any]
    corrupt: list[CorruptionReport] = field(default_factory=list)


class CheckpointError(Exception):
    """No usable checkpoint generation exists.

    Carries the :class:`CorruptionReport` list so callers can print a
    structured account of every generation that was tried and rejected.
    """

    def __init__(self, message: str, reports: list[CorruptionReport]) -> None:
        super().__init__(message)
        self.reports = reports

    def render(self) -> str:
        lines = [f"checkpoint recovery failed: {self}"]
        for report in self.reports:
            lines.append(
                f"  gen {report.generation:06d}: {report.reason}"
                f" ({report.detail}) -> quarantined as"
                f" {report.quarantined_to}"
            )
        if not self.reports:
            lines.append("  (no checkpoint generations present)")
        return "\n".join(lines)


def _write_synced(path: Path, data: bytes) -> None:
    """Write ``data`` as the whole of ``path``, flushed and fsync'd."""
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_path(path: Path) -> None:
    """fsync a file or directory so a preceding write/rename is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointStore:
    """Generation-directory checkpoint store under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: torture hook -- a protocol point name at which the next
        #: :meth:`write_generation` raises :class:`StoreCrashInjected`:
        #: ``"section:<name>"`` (after that section file is written),
        #: ``"segment:<name>"`` (after that section's segment file),
        #: ``"manifest"`` (after the manifest, before the rename), or
        #: ``"rename"`` (after the rename, before the parent fsync).
        self._crash_after: str | None = None
        #: segment chains, by section name, of the generation this
        #: store last wrote or loaded: what the next generation extends.
        self._chains: dict[str, list[dict[str, Any]]] = {}

    # -- campaign manifest ---------------------------------------------
    def write_campaign_manifest(self, manifest: dict[str, Any]) -> None:
        """Atomically write the campaign parameter fingerprint."""
        tmp = self.root / (_CAMPAIGN + ".tmp")
        _write_synced(tmp, canonical_dumps(encode(manifest)).encode("utf-8"))
        os.rename(tmp, self.root / _CAMPAIGN)
        _fsync_path(self.root)

    def read_campaign_manifest(self) -> dict[str, Any] | None:
        """The campaign fingerprint, or None when absent/unreadable."""
        path = self.root / _CAMPAIGN
        try:
            return decode(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError, CodecError):
            return None

    # -- generation enumeration ----------------------------------------
    @staticmethod
    def _gen_name(generation: int) -> str:
        return f"{_GEN_PREFIX}{generation:06d}"

    def _gen_path(self, generation: int) -> Path:
        return self.root / self._gen_name(generation)

    def generations(self) -> list[int]:
        """Fully-renamed generation numbers, ascending."""
        found = []
        for entry in self.root.iterdir():
            name = entry.name
            if not entry.is_dir() or not name.startswith(_GEN_PREFIX):
                continue
            if name.endswith(".tmp"):
                continue
            suffix = name[len(_GEN_PREFIX):]
            if suffix.isdigit():
                found.append(int(suffix))
        return sorted(found)

    # -- writing -------------------------------------------------------
    def _maybe_crash(self, point: str) -> None:
        if self._crash_after == point:
            self._crash_after = None
            raise StoreCrashInjected(f"injected power loss after {point!r}")

    def cursor(self, name: str) -> int:
        """Stream index where section ``name``'s next segment starts.

        The end of that chain in the generation this store last wrote
        or loaded; 0 before either.
        """
        chain = self._chains.get(name)
        if not chain:
            return 0
        return chain[-1]["first"] + chain[-1]["count"]

    def _write_segment(
        self, tmp: Path, generation: int, name: str, segment: Segment
    ) -> list[dict[str, Any]]:
        """Write ``segment``'s payload; return the section's new chain."""
        chain = [
            entry
            for entry in self._chains.get(name, [])
            if entry["first"] + entry["count"] > segment.live_from
        ]
        if chain and segment.first != self.cursor(name):
            raise ValueError(
                f"segment {name!r} starts at {segment.first}, "
                f"its chain ends at {self.cursor(name)}"
            )
        if segment.count:
            data = canonical_dumps(encode(segment.payload)).encode("utf-8")
            _write_synced(tmp / f"{name}{_SEGMENT}", data)
            chain.append(
                {
                    "generation": generation,
                    "file": f"{self._gen_name(generation)}/{name}{_SEGMENT}",
                    "checksum": section_checksum(data),
                    "size": len(data),
                    "first": segment.first,
                    "count": segment.count,
                }
            )
        return chain

    def write_generation(
        self, sections: dict[str, Any], meta: dict[str, Any] | None = None
    ) -> int:
        """Write one new generation durably; returns its number.

        Sections are raw state values; this encodes, checksums, and
        writes each to its own file, then the manifest, then performs
        the atomic rename.  A :class:`Segment` value is written as a
        segment file and appended to that section's chain.  A crash
        (real or injected via ``_crash_after``) at any point never
        damages prior generations.
        """
        generation = (self.generations() or [0])[-1] + 1
        final = self._gen_path(generation)
        tmp = self.root / (self._gen_name(generation) + ".tmp")
        if tmp.exists():  # pragma: no cover - stale from a prior crash
            shutil.rmtree(tmp)
        tmp.mkdir()
        checksums: dict[str, dict[str, Any]] = {}
        chains: dict[str, list[dict[str, Any]]] = {}
        for name in sorted(sections):
            value = sections[name]
            if isinstance(value, Segment):
                chains[name] = self._write_segment(tmp, generation, name, value)
                self._maybe_crash(f"segment:{name}")
                continue
            # one UTF-8 encode per section: the same bytes are
            # checksummed, measured and written.
            data = canonical_dumps(encode(value)).encode("utf-8")
            _write_synced(tmp / f"{name}.json", data)
            checksums[name] = {
                "checksum": section_checksum(data),
                "size": len(data),
            }
            self._maybe_crash(f"section:{name}")
        manifest = {
            "format_version": FORMAT_VERSION,
            "generation": generation,
            "sections": checksums,
            "chains": chains,
            "meta": dict(meta or {}),
        }
        _write_synced(tmp / _MANIFEST, canonical_dumps(manifest).encode("utf-8"))
        _fsync_path(tmp)
        self._maybe_crash("manifest")
        os.rename(tmp, final)
        self._chains = chains
        self._maybe_crash("rename")
        _fsync_path(self.root)
        return generation

    # -- quarantine + recovery -----------------------------------------
    def quarantine(self, path: Path, reason: str) -> Path:
        """Move a directory into ``quarantine/`` tagged with the reason."""
        qdir = self.root / "quarantine"
        qdir.mkdir(exist_ok=True)
        target = qdir / f"{path.name}.{reason}"
        n = 1
        while target.exists():  # pragma: no cover - repeat corruption
            n += 1
            target = qdir / f"{path.name}.{reason}.{n}"
        os.rename(path, target)
        return target

    def quarantine_generation(
        self, generation: int, reason: str, detail: str
    ) -> CorruptionReport:
        """Quarantine a fully-renamed generation (e.g. a failed audit)."""
        target = self.quarantine(self._gen_path(generation), reason)
        return CorruptionReport(
            generation=generation,
            reason=reason,
            detail=detail,
            quarantined_to=target.name,
        )

    def _validate_generation(
        self, generation: int
    ) -> tuple[dict[str, Any], dict[str, Any], dict[str, list]]:
        """Raise ValueError on any corruption; return (sections, meta,
        chains)."""
        path = self._gen_path(generation)
        try:
            manifest = json.loads((path / _MANIFEST).read_bytes())
        except FileNotFoundError:
            raise ValueError("missing-manifest: MANIFEST.json absent")
        except (OSError, ValueError) as exc:
            raise ValueError(f"bad-manifest: {exc}")
        if not isinstance(manifest, dict):
            raise ValueError("bad-manifest: not a JSON object")
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"stale-version: format_version={version!r},"
                f" expected {FORMAT_VERSION}"
            )
        listed = manifest.get("sections")
        chains = manifest.get("chains")
        meta = manifest.get("meta", {})
        tables = (("sections", listed), ("chains", chains), ("meta", meta))
        for key, table in tables:
            if not isinstance(table, dict):
                raise ValueError(f"bad-manifest: {key} is not an object")
        sections: dict[str, Any] = {}
        for name in sorted(listed):
            entry = listed[name]
            if not isinstance(entry, dict) or not isinstance(
                entry.get("checksum"), str
            ):
                raise ValueError(f"bad-manifest: section {name!r} entry")
            sections[name] = self._read_checked(
                path / f"{name}.json", entry["checksum"], "section", name
            )
        for name in sorted(chains):
            sections[name] = self._read_chain(generation, name, chains[name])
        return sections, meta, chains

    def _read_chain(self, generation: int, name: str, chain: Any) -> list:
        """Decoded payloads of one section's segment chain, oldest first.

        Every entry is type-checked, and the chain checked contiguous,
        before any segment file is read.
        """
        if not isinstance(chain, list):
            raise ValueError(f"bad-manifest: chain {name!r} is not a list")
        end = None
        for entry in chain:
            if (
                not isinstance(entry, dict)
                or any(
                    type(entry.get(key)) is not int
                    for key in ("generation", "size", "first", "count")
                )
                or not isinstance(entry.get("checksum"), str)
                or not 0 < entry["generation"] <= generation
                or entry["first"] < 0
                or entry["count"] < 1
                or entry.get("file")
                != f"{self._gen_name(entry['generation'])}/{name}{_SEGMENT}"
            ):
                raise ValueError(f"bad-manifest: chain {name!r} entry {entry!r}")
            if end is not None and entry["first"] != end:
                raise ValueError(
                    f"bad-manifest: chain {name!r} is not contiguous"
                    f" at {entry['file']}"
                )
            end = entry["first"] + entry["count"]
        return [
            self._read_checked(
                self.root / entry["file"], entry["checksum"], "segment",
                entry["file"],
            )
            for entry in chain
        ]

    @staticmethod
    def _read_checked(path: Path, checksum: str, kind: str, name: str) -> Any:
        """Read, checksum and decode one section or segment file."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            shown = path.relative_to(path.parent.parent)
            raise ValueError(f"missing-{kind}: {shown} absent")
        except OSError as exc:  # pragma: no cover - I/O error
            raise ValueError(f"unreadable-{kind}: {name}: {exc}")
        if section_checksum(data) != checksum:
            raise ValueError(
                f"bad-checksum: {kind} {name!r} does not match manifest"
            )
        try:
            return decode(json.loads(data))
        except (ValueError, CodecError) as exc:
            # checksum matched, so the *write* was intact but the
            # content is undecodable -- a format bug, still quarantine.
            raise ValueError(f"undecodable-{kind}: {name}: {exc}")

    def sweep_torn_writes(self) -> list[CorruptionReport]:
        """Quarantine stray ``*.tmp`` generation dirs (torn writes)."""
        reports = []
        for entry in sorted(self.root.iterdir()):
            name = entry.name
            if entry.is_dir() and name.startswith(_GEN_PREFIX) and name.endswith(".tmp"):
                suffix = name[len(_GEN_PREFIX):-len(".tmp")]
                generation = int(suffix) if suffix.isdigit() else -1
                target = self.quarantine(entry, "torn-write")
                reports.append(
                    CorruptionReport(
                        generation=generation,
                        reason="torn-write",
                        detail="tmp directory left by an interrupted write",
                        quarantined_to=target.name,
                    )
                )
        return reports

    def latest_good(self) -> LoadReport:
        """Newest generation that validates, quarantining the corrupt.

        Scans newest-first.  Each corrupt generation is moved into
        ``quarantine/`` and recorded; the first one that validates wins.
        Raises :class:`CheckpointError` (with every report) when none do.
        """
        corrupt = self.sweep_torn_writes()
        for generation in reversed(self.generations()):
            try:
                sections, meta, chains = self._validate_generation(generation)
            except ValueError as exc:
                reason, _, detail = str(exc).partition(": ")
                corrupt.append(
                    self.quarantine_generation(generation, reason, detail)
                )
                continue
            self._chains = chains
            return LoadReport(
                generation=generation,
                sections=sections,
                meta=meta,
                corrupt=corrupt,
            )
        raise CheckpointError(
            "no valid checkpoint generation found", corrupt
        )
