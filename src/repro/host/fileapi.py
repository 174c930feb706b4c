"""Host file-API extensions -- Section 6.

SecureSSD lets applications opt a file *out* of secure handling with a
new open-mode flag ``O_INSEC`` ("the file data can have multiple versions
in the SSD and deletion is not secure"); the file system then tags the
file's block-I/O writes with ``REQ_OP_INSEC_WRITE``.  The default --
no flag -- is secure, so Evanesco-unaware software is protected without
modification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Flag, auto


class OpenFlags(Flag):
    """Open-mode flags relevant to the sanitization contract."""

    NONE = 0
    #: security-insensitive file: multiple stale versions are acceptable.
    O_INSEC = auto()


@dataclass
class FileInfo:
    """File-system metadata for one file."""

    fid: int
    name: str
    flags: OpenFlags = OpenFlags.NONE
    #: LPA of each page of the file, indexed by page offset within file.
    lpas: list[int] = field(default_factory=list)
    created_tick: int = 0
    deleted: bool = False
    #: derived from ``flags`` (fixed at open), once: the file's data must
    #: be tracked as secured.
    secure: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.secure = not self.flags & OpenFlags.O_INSEC

    @property
    def size_pages(self) -> int:
        return len(self.lpas)


class FileSystemError(Exception):
    """File-system-level failure (no space, missing file, ...)."""


class OutOfSpaceError(FileSystemError):
    """The file system has no free logical pages left."""
