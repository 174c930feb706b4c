"""Minimal ext4-like file model over the SSD's logical page space.

The paper's host stack is ext4 over a block device; what matters for
every experiment is the *mapping discipline*:

* a file is a set of logical pages (we model page-granular extents);
* an in-place file write re-writes the **same LPAs** (ext4 is not
  copy-on-write), which makes the FTL invalidate the old physical copies
  -- the data-versioning problem of Section 3;
* deleting a file unlinks it and sends **trim** for its LPAs (Section
  2.2), so the FTL learns the pages are dead without erasing anything;
* appends allocate fresh LPAs.

Writes are submitted as one block-I/O request per physically-contiguous
LPA run, tagged with the file id (VerTrace's annotation) and flagged
``REQ_OP_INSEC_WRITE`` for ``O_INSEC`` files.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from repro.ftl.request import IoRequest, RequestFlags, RequestOp
from repro.host.fileapi import FileInfo, FileSystemError, OpenFlags, OutOfSpaceError
from repro.ssd.device import SSD


class FileSystem:
    """Page-granular file layer driving one SSD."""

    def __init__(self, ssd: SSD) -> None:
        self.ssd = ssd
        self._capacity = ssd.logical_pages
        self._free: list[int] = list(range(self._capacity))
        heapq.heapify(self._free)
        self._files: dict[int, FileInfo] = {}
        self._by_name: dict[str, FileInfo] = {}
        self._next_fid = 1

    # ------------------------------------------------------------------
    @property
    def capacity_pages(self) -> int:
        return self._capacity

    @property
    def used_pages(self) -> int:
        return self._capacity - len(self._free)

    def files(self) -> list[FileInfo]:
        return [f for f in self._files.values() if not f.deleted]

    def lookup(self, name: str) -> FileInfo:
        info = self._by_name.get(name)
        if info is None:
            raise FileSystemError(f"no such file: {name!r}")
        return info

    def exists(self, name: str) -> bool:
        return name in self._by_name

    # ------------------------------------------------------------------
    def create(self, name: str, flags: OpenFlags = OpenFlags.NONE) -> FileInfo:
        """Create an empty file; fails if the name exists."""
        if name in self._by_name:
            raise FileSystemError(f"file exists: {name!r}")
        info = FileInfo(
            fid=self._next_fid,
            name=name,
            flags=flags,
            created_tick=self.ssd.ftl.logical_time,
        )
        self._next_fid += 1
        self._files[info.fid] = info
        self._by_name[name] = info
        return info

    def write(self, name: str, offset_pages: int, npages: int) -> None:
        """Write ``npages`` at ``offset_pages``, extending if needed.

        Pages inside the current size are overwritten in place (same
        LPAs); pages beyond it get freshly-allocated LPAs.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        self._write(self.lookup(name), offset_pages, npages)

    def append(self, name: str, npages: int) -> None:
        """Append fresh pages at EOF."""
        info = self.lookup(name)
        if npages <= 0:
            raise ValueError("npages must be positive")
        self._write(info, len(info.lpas), npages)

    def read(self, name: str, offset_pages: int = 0, npages: int | None = None) -> None:
        """Read a page range (defaults to the whole file)."""
        info = self.lookup(name)
        if npages is None:
            npages = len(info.lpas) - offset_pages
        if npages <= 0:
            return
        lpas = info.lpas[offset_pages : offset_pages + npages]
        self._submit_runs(_READ, lpas, info)

    def delete(self, name: str) -> None:
        """Unlink the file and trim all of its LPAs (Section 2.2)."""
        info = self.lookup(name)
        self._submit_runs(_TRIM, info.lpas, info)
        for lpa in info.lpas:
            heapq.heappush(self._free, lpa)
        info.lpas = []
        info.deleted = True
        del self._by_name[name]

    def overwrite_whole(self, name: str) -> None:
        """Rewrite every page of the file in place (update burst)."""
        info = self.lookup(name)
        if info.lpas:
            self.write(name, 0, len(info.lpas))

    # ------------------------------------------------------------------
    def _write(self, info: FileInfo, offset_pages: int, npages: int) -> None:
        lpas = info.lpas
        if offset_pages < 0 or offset_pages > len(lpas):
            raise FileSystemError(
                f"sparse write at offset {offset_pages} beyond EOF is unsupported"
            )
        end = offset_pages + npages
        free = self._free
        while len(lpas) < end:
            if not free:
                # the pages allocated so far stay on the file, unwritten
                raise OutOfSpaceError("file system is full")
            lpas.append(heapq.heappop(free))
        self._submit_runs(_WRITE, lpas[offset_pages:end], info)

    def _submit_runs(self, op: RequestOp, lpas: list[int], info: FileInfo) -> None:
        """Submit one request per contiguous LPA run."""
        submit = self.ssd.submit
        flags = _SECURE if info.secure else _INSEC
        fid = info.fid
        if len(lpas) == 1:
            submit(IoRequest(op, lpas[0], 1, flags, fid))
            return
        for start, count in _contiguous_runs(lpas):
            submit(IoRequest(op, start, count, flags, fid))


_READ, _WRITE, _TRIM = RequestOp.READ, RequestOp.WRITE, RequestOp.TRIM
_SECURE, _INSEC = RequestFlags.NONE, RequestFlags.INSEC_WRITE


def _contiguous_runs(lpas: list[int]) -> Iterator[tuple[int, int]]:
    """Group a list of LPAs into (start, length) runs."""
    if not lpas:
        return
    start = prev = lpas[0]
    count = 1
    for lpa in lpas[1:]:
        if lpa == prev + 1:
            prev = lpa
            count += 1
            continue
        yield start, count
        start = prev = lpa
        count = 1
    yield start, count
