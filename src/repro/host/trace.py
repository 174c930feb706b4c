"""File-level trace records and the trace replayer.

Workload generators emit :class:`TraceOp` streams (create / write /
append / read / delete on named files); the replayer applies them to a
:class:`~repro.host.filesystem.FileSystem`, which turns them into block
I/O against the SSD under test.  Keeping the trace file-level (rather
than block-level) mirrors the paper's methodology: the same file-level
activity is replayed against every SSD variant, and each variant's FTL
behaviour determines the physical outcome.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from repro.host.fileapi import OpenFlags
from repro.host.filesystem import FileSystem


class TraceKind(Enum):
    CREATE = "create"
    WRITE = "write"     # in-place write at offset
    APPEND = "append"
    READ = "read"
    DELETE = "delete"


class _TraceOpRecord(NamedTuple):
    kind: TraceKind
    name: str
    offset_pages: int
    npages: int
    insec: bool


class TraceOp(_TraceOpRecord):
    """One file-level operation (an immutable tuple)."""

    __slots__ = ()

    def __new__(
        cls,
        kind: TraceKind,
        name: str,
        offset_pages: int = 0,
        npages: int = 0,
        insec: bool = False,
    ) -> "TraceOp":
        if npages < 0 or offset_pages < 0:
            raise ValueError("offset/npages must be non-negative")
        return _tuple_new(cls, (kind, name, offset_pages, npages, insec))

    @classmethod
    def _make(cls, iterable) -> "TraceOp":
        return cls(*iterable)  # validated; ``_replace`` goes through here


_tuple_new = tuple.__new__


def create(name: str, insec: bool = False) -> TraceOp:
    return TraceOp(TraceKind.CREATE, name, insec=insec)


def write(name: str, offset_pages: int, npages: int) -> TraceOp:
    return TraceOp(TraceKind.WRITE, name, offset_pages, npages)


def append(name: str, npages: int) -> TraceOp:
    return TraceOp(TraceKind.APPEND, name, 0, npages)


def read(name: str, offset_pages: int = 0, npages: int = 0) -> TraceOp:
    return TraceOp(TraceKind.READ, name, offset_pages, npages)


def delete(name: str) -> TraceOp:
    return TraceOp(TraceKind.DELETE, name)


@dataclass
class ReplayReport:
    """Counters from one trace replay."""

    ops: int = 0
    creates: int = 0
    writes: int = 0
    reads: int = 0
    deletes: int = 0
    pages_written: int = 0
    pages_read: int = 0


class TraceReplayer:
    """Applies a TraceOp stream to a file system."""

    def __init__(self, fs: FileSystem) -> None:
        self.fs = fs

    def replay(self, ops: Iterable[TraceOp]) -> ReplayReport:
        """Apply ``ops`` in order; one kind dispatch per op.

        The counters are returned only for a replay that completes: an
        op that raises (e.g. ``OutOfSpaceError``) propagates with the
        file system holding the effects of every op before it.
        """
        fs = self.fs
        create, write, append = fs.create, fs.write, fs.append
        read, delete = fs.read, fs.delete
        n = creates = writes = reads = deletes = written = read_pages = 0
        for kind, name, offset_pages, npages, insec in ops:
            # most frequent kinds first
            if kind is _APPEND:
                append(name, npages)
                writes += 1
                written += npages
            elif kind is _READ:
                read(name, offset_pages, npages or None)
                reads += 1
                read_pages += npages
            elif kind is _CREATE:
                create(name, _O_INSEC if insec else _O_NONE)
                creates += 1
            elif kind is _DELETE:
                delete(name)
                deletes += 1
            elif kind is _WRITE:
                write(name, offset_pages, npages)
                writes += 1
                written += npages
            else:  # pragma: no cover - enum is closed
                raise ValueError(f"unknown op kind {kind!r}")
            n += 1
        return ReplayReport(
            ops=n,
            creates=creates,
            writes=writes,
            reads=reads,
            deletes=deletes,
            pages_written=written,
            pages_read=read_pages,
        )

    def apply(self, op: TraceOp) -> None:
        self.replay((op,))


_CREATE, _WRITE, _APPEND = TraceKind.CREATE, TraceKind.WRITE, TraceKind.APPEND
_READ, _DELETE = TraceKind.READ, TraceKind.DELETE
_O_INSEC, _O_NONE = OpenFlags.O_INSEC, OpenFlags.NONE
