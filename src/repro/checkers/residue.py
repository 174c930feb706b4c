"""The residue rule: may a sanitized page still read back like that?

Every "is deleted data still readable?" verdict is decided here, at the
Section 5.1 attacker boundary (DESIGN 3m): :func:`classify` puts a
readback in one class and each sanitize method accepts a fixed set of
classes (:data:`ACCEPTED`).  Callers differ only in which pages they
ask about: the runtime sanitizer (:func:`sanitize_violation`), the
checkpoint restore audit (:func:`lock_violation`), and the torture leak
list, audit verifier and C1/C2 auditor (:class:`DeviceResidue`).

:mod:`repro.ftl.base` imports the sanitizer, and so this module, at
load time: only :mod:`repro.flash` is imported here, ``decrypt`` is a
duck-typed FTL attribute, and the attacker is imported where used.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.flash.block import Block
from repro.flash.chip import ERASED_DATA, SCRUBBED_DATA, ZERO_DATA

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.ftl.base import PageMappedFtl
    from repro.security.attacker import RecoveredPage

ERASED = "erased"
LOCKED = "locked"
SCRUBBED = "scrubbed"
DEAD_CIPHERTEXT = "dead-ciphertext"
READABLE = "readable"

#: sanitize method -> the readback classes that prove the data gone.
#: An unknown method proves nothing, so it accepts no class at all.
ACCEPTED: dict[str, frozenset[str]] = {
    "plock": frozenset({LOCKED, ERASED}),
    "block_lock": frozenset({LOCKED, ERASED}),
    # scrubbed beneath a still-enforcing lock: wear-out retirement
    # scrubs bLocked GC victims whose clearing erase never happened
    "scrub": frozenset({SCRUBBED, LOCKED, ERASED}),
    "erase": frozenset({ERASED}),
    "key_delete": frozenset({DEAD_CIPHERTEXT, ERASED}),
}

#: a page the chip reports locked must read back locked: the lock is
#: what is under test, so erased cells would prove nothing about it.
LOCK_ENFORCED = frozenset({LOCKED})


class Readback(NamedTuple):
    """What one read of one page returned, and its residue class."""

    data: Any
    residue: str
    blocked: bool = False


def classify(data: object, blocked: bool = False, decrypt: Any = None) -> str:
    """Residue class of one readback (``decrypt`` from key-deleting FTLs)."""
    if blocked:
        return LOCKED if data == ZERO_DATA else READABLE
    if data == ERASED_DATA:
        return ERASED
    if data == SCRUBBED_DATA:
        return SCRUBBED
    if decrypt is not None and decrypt(data) is None:
        return DEAD_CIPHERTEXT
    return READABLE


def plaintext(ftl: PageMappedFtl, data: object) -> object:
    """What a key-holding reader recovers from ``data``."""
    decrypt = getattr(ftl, "decrypt", None)
    return data if decrypt is None else decrypt(data)


def accepts(method: str, residue: str) -> bool:
    """Does a ``residue`` readback prove ``method`` destroyed the data?"""
    return residue in ACCEPTED.get(method, frozenset())


def probe(ftl: PageMappedFtl, gppa: int) -> Readback:
    """Classify one :meth:`PageMappedFtl.probe_read` (no trace in stats)."""
    result = ftl.probe_read(*ftl.split_gppa(gppa))
    residue = classify(result.data, result.blocked, getattr(ftl, "decrypt", None))
    return Readback(result.data, residue, result.blocked)


def sanitize_violation(ftl: PageMappedFtl, gppa: int, method: str) -> str | None:
    """Why a page sanitized via ``method`` is not unreadable, or None."""
    readback = probe(ftl, gppa)
    if accepts(method, readback.residue):
        return None
    return (
        f"gppa {gppa} was sanitized via {method!r} but a read returned "
        f"{readback.data!r} (blocked={readback.blocked}), a "
        f"{readback.residue} readback; {method!r} accepts "
        f"{sorted(ACCEPTED.get(method, ()))}"
    )


def lock_violation(ftl: PageMappedFtl) -> tuple[str, str] | None:
    """``(invariant, detail)`` for the first page an Evanesco chip reports
    locked that does not read back locked, or None.

    A pLock that an injected fault left below the majority threshold is
    not reported locked: the FTL already re-classified that page.
    """
    for chip_id, chip in enumerate(ftl.chips):
        if not hasattr(chip, "page_locked"):
            continue  # a plain chip has no access-permission logic
        for ppn in range(chip.geometry.pages_per_chip):
            if not chip.page_locked(ppn):
                continue
            readback = probe(ftl, ftl.make_gppa(chip_id, ppn))
            if readback.residue not in LOCK_ENFORCED:
                block = chip.geometry.split_ppn(ppn)[0]
                kind = "block" if chip.block_locked(block) else "page"
                return f"locked-{kind}-probe", (
                    f"chip {chip_id} ppn {ppn} is {kind}-locked but a read "
                    f"returned {readback.data!r} (blocked={readback.blocked})"
                )
    return None


class DeviceResidue:
    """The raw-chip attacker's image of one device, classified per page.

    A page absent from the image is locked (the dump hides its programmed
    cells, or the chip reports a lock) or else erased; telling the two
    apart issues no read command, so no chip counter moves.
    """

    def __init__(self, ftl: PageMappedFtl) -> None:
        from repro.security.attacker import RecoveredPage

        self.ftl = ftl
        self._decrypt = getattr(ftl, "decrypt", None)
        #: gppa -> the attacker's recovered page, for every readable page
        #: (``RawChipAttacker.image_device`` dumps the same pages).
        self.image: dict[int, RecoveredPage] = {
            gppa: RecoveredPage(gppa, payload)
            for gppa, payload in sorted(ftl.raw_device_dump().items())
        }

    def readback(self, gppa: int) -> Readback:
        page = self.image.get(gppa)
        if page is None:
            chip_id, ppn = self.ftl.split_gppa(gppa)
            chip = self.ftl.chips[chip_id]
            block, offset = block_at(self.ftl, gppa)
            if offset < block.next_page or (
                hasattr(chip, "page_locked") and chip.page_locked(ppn)
            ):
                return Readback(ZERO_DATA, LOCKED, True)
            return Readback(ERASED_DATA, ERASED)
        return Readback(page.payload, classify(page.payload, False, self._decrypt))

    def recovered(self) -> Iterator[RecoveredPage]:
        """Every ``readable`` page as the attacker, who holds any key still
        in the controller, reads it: live-key ciphertext as its plaintext."""
        from repro.security.attacker import RecoveredPage

        for gppa, page in sorted(self.image.items()):
            if self.readback(gppa).residue == READABLE:
                yield RecoveredPage(gppa, plaintext(self.ftl, page.payload))


def stale_secured_leaks(ftl: PageMappedFtl) -> list[int]:
    """The torture leak list: readable secured pages whose version is dead
    (not the live copy, nor a same-``seq`` GC duplicate of it).  Variants
    with ``sanitize_scope == "none"`` promise nothing.  Issues no read
    command, so no chip counter moves."""
    if getattr(ftl, "sanitize_scope", "none") == "none":
        return []
    device = DeviceResidue(ftl)
    leaks: list[int] = []
    for gppa in sorted(device.image):
        spare = spare_at(ftl, gppa)
        if not spare.get("secure"):
            continue
        lpa, seq = int(spare.get("lpa", -1)), spare.get("seq")
        # -1 is the L2P's UNMAPPED (repro.ftl is off limits here)
        live = ftl.l2p.lookup(lpa) if 0 <= lpa < ftl.config.logical_pages else -1
        if live == gppa:
            continue  # the live copy itself
        if live >= 0 and spare_at(ftl, live).get("seq") == seq:
            continue  # same version is still live (GC duplicate)
        if device.readback(gppa).residue == READABLE:
            leaks.append(gppa)  # no sanitize method explains this readback
    return leaks


def block_at(ftl: PageMappedFtl, gppa: int) -> tuple[Block, int]:
    """The flash block behind one global physical page address, and the
    page's offset in it."""
    chip_id, ppn = ftl.split_gppa(gppa)
    block_index, offset = ftl.geometry.split_ppn(ppn)
    return ftl.chips[chip_id].blocks[block_index], offset


def spare_at(ftl: PageMappedFtl, gppa: int) -> Mapping[str, Any]:
    """The spare area stored at one global physical page address."""
    block, offset = block_at(ftl, gppa)
    return block.spare[offset]
