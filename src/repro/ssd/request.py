"""Host block-I/O request types and flags -- Section 6.

SecureSSD extends the block-I/O interface with one new operation flag,
``REQ_OP_INSEC_WRITE``: a write carrying it is *security-insensitive* and
the FTL tracks it as a plain ``valid`` page; all other writes default to
``secured`` so that Evanesco-unaware hosts get sanitization for free
(backward compatibility, Section 6).

Requests address 16-KiB logical pages (LPAs); the host layer is
responsible for aligning byte-level file I/O to page boundaries, exactly
like the paper's custom trace replayer does.
"""

from __future__ import annotations

from enum import Enum, Flag, auto
from typing import NamedTuple


class RequestOp(Enum):
    """Block-level operation."""

    READ = "read"
    WRITE = "write"
    TRIM = "trim"


class RequestFlags(Flag):
    """Extended block-I/O flags."""

    NONE = 0
    #: the write's data is security-insensitive (O_INSEC file).
    INSEC_WRITE = auto()


class _IoRequestRecord(NamedTuple):
    op: RequestOp
    lpa: int
    npages: int
    flags: RequestFlags
    tag: object
    secure: bool


class IoRequest(_IoRequestRecord):
    """One host request over a contiguous LPA range.

    An immutable tuple: a rendered trace is shared by every variant that
    replays it, so no consumer may change a request in place.

    Attributes
    ----------
    op:
        Read, write, or trim.
    lpa:
        First logical page address.
    npages:
        Number of consecutive logical pages.
    flags:
        Extended flags (``INSEC_WRITE``).
    tag:
        Opaque host annotation (the file-system layer passes the file id,
        which VerTrace uses to attribute physical pages to files).
    secure:
        Whether written data must be tracked as secured: a write without
        ``INSEC_WRITE``.  Decided once, at construction.
    """

    __slots__ = ()

    def __new__(
        cls,
        op: RequestOp,
        lpa: int,
        npages: int = 1,
        flags: RequestFlags = RequestFlags.NONE,
        tag: object = None,
    ) -> "IoRequest":
        if npages <= 0:
            raise ValueError("npages must be positive")
        if lpa < 0:
            raise ValueError("lpa must be non-negative")
        secure = op is _WRITE and (
            flags is _NO_FLAGS or not flags & RequestFlags.INSEC_WRITE
        )
        return _tuple_new(cls, (op, lpa, npages, flags, tag, secure))

    def __getnewargs__(self) -> tuple:
        return self[:5]  # the constructor's arguments; ``secure`` is derived

    def _replace(self, **changes: object) -> "IoRequest":
        """A copy with ``changes`` applied, validated like a new request."""
        return type(self)(**dict(zip(self._fields[:5], self), **changes))

    @classmethod
    def _make(cls, iterable) -> "IoRequest":
        return cls(*iterable)  # the five constructor arguments, validated

    def lpas(self) -> range:
        return range(self.lpa, self.lpa + self.npages)


_tuple_new = tuple.__new__
_WRITE = RequestOp.WRITE
_NO_FLAGS = RequestFlags.NONE


def read(lpa: int, npages: int = 1, tag: object = None) -> IoRequest:
    return IoRequest(RequestOp.READ, lpa, npages, tag=tag)


def write(
    lpa: int,
    npages: int = 1,
    secure: bool = True,
    tag: object = None,
) -> IoRequest:
    flags = RequestFlags.NONE if secure else RequestFlags.INSEC_WRITE
    return IoRequest(RequestOp.WRITE, lpa, npages, flags=flags, tag=tag)


def trim(lpa: int, npages: int = 1, tag: object = None) -> IoRequest:
    return IoRequest(RequestOp.TRIM, lpa, npages, tag=tag)
