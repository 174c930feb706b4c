"""Extended page-status table -- Section 6.

A page in SecureSSD is ``free``, ``valid``, ``invalid``, or ``secured``
(the fourth state is the paper's extension: written data whose future
invalidation must be sanitized).  The table also keeps per-block live and
invalid counters so greedy GC victim selection and the lock manager's
"is the whole block dead?" test are O(1).
"""

from __future__ import annotations

from enum import IntEnum


class PageStatus(IntEnum):
    """FTL view of one physical page."""

    FREE = 0
    VALID = 1      # live, security-insensitive
    INVALID = 2    # dead, awaiting erase
    SECURED = 3    # live, security-sensitive


# module-level aliases: the setters below run once per programmed or
# invalidated page, and a local/global load is much cheaper than two
# enum attribute lookups per call.
_FREE = PageStatus.FREE
_VALID = PageStatus.VALID
_INVALID = PageStatus.INVALID
_SECURED = PageStatus.SECURED


class StatusTable:
    """Per-page status plus per-block aggregates."""

    def __init__(self, physical_pages: int, pages_per_block: int) -> None:
        if physical_pages <= 0 or pages_per_block <= 0:
            raise ValueError("sizes must be positive")
        if physical_pages % pages_per_block:
            raise ValueError("physical_pages must be a multiple of pages_per_block")
        self._status = [PageStatus.FREE] * physical_pages
        self._pages_per_block = pages_per_block
        n_blocks = physical_pages // pages_per_block
        self._live = [0] * n_blocks       # VALID + SECURED
        self._secured = [0] * n_blocks    # SECURED only
        self._invalid = [0] * n_blocks

    # ------------------------------------------------------------------
    @property
    def physical_pages(self) -> int:
        return len(self._status)

    @property
    def n_blocks(self) -> int:
        return len(self._live)

    def block_of(self, gppa: int) -> int:
        return gppa // self._pages_per_block

    def get(self, gppa: int) -> PageStatus:
        return self._status[gppa]

    # ------------------------------------------------------------------
    def set_written(self, gppa: int, secure: bool) -> None:
        """FREE -> VALID/SECURED on program."""
        status = self._status
        if status[gppa] is not _FREE:
            raise ValueError(f"gppa {gppa} is {status[gppa].name}, not FREE")
        blk = gppa // self._pages_per_block
        status[gppa] = _SECURED if secure else _VALID
        self._live[blk] += 1
        if secure:
            self._secured[blk] += 1

    def set_invalid(self, gppa: int) -> PageStatus:
        """VALID/SECURED -> INVALID; returns the previous status."""
        status = self._status
        prev = status[gppa]
        if prev is not _VALID and prev is not _SECURED:
            raise ValueError(f"gppa {gppa} is {prev.name}, cannot invalidate")
        blk = gppa // self._pages_per_block
        status[gppa] = _INVALID
        self._live[blk] -= 1
        self._invalid[blk] += 1
        if prev is _SECURED:
            self._secured[blk] -= 1
        return prev

    def set_erased_block(self, block_id: int) -> None:
        """All pages of a block -> FREE (block erase)."""
        base = block_id * self._pages_per_block
        for gppa in range(base, base + self._pages_per_block):
            self._status[gppa] = PageStatus.FREE
        self._live[block_id] = 0
        self._secured[block_id] = 0
        self._invalid[block_id] = 0

    # ------------------------------------------------------------------
    def live_count(self, block_id: int) -> int:
        return self._live[block_id]

    def secured_count(self, block_id: int) -> int:
        return self._secured[block_id]

    def invalid_count(self, block_id: int) -> int:
        return self._invalid[block_id]

    def _pages(self, block_id: int, offsets: range | None) -> range:
        base = block_id * self._pages_per_block
        if offsets is None:
            return range(base, base + self._pages_per_block)
        return range(base + offsets.start, base + offsets.stop)

    def live_pages(self, block_id: int, offsets: range | None = None) -> list[int]:
        """Physical pages of the block that are VALID or SECURED, in
        ascending order; ``offsets``, a contiguous range of in-block
        page offsets (a wordline, say), restricts them to that range."""
        status = self._status
        return [
            gppa
            for gppa in self._pages(block_id, offsets)
            if status[gppa] is _VALID or status[gppa] is _SECURED
        ]

    def invalid_pages(self, block_id: int, offsets: range | None = None) -> list[int]:
        """Physical pages of the block that are INVALID, in ascending
        order; ``offsets`` as for :meth:`live_pages`."""
        status = self._status
        return [
            gppa for gppa in self._pages(block_id, offsets) if status[gppa] is _INVALID
        ]

    def counts(self) -> dict[PageStatus, int]:
        out = {s: 0 for s in PageStatus}
        for s in self._status:
            out[s] += 1
        return out

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, list[int]]:
        """Checkpoint payload; statuses as ints (4x smaller than tags)."""
        return {
            "status": [int(s) for s in self._status],
            "live": list(self._live),
            "secured": list(self._secured),
            "invalid": list(self._invalid),
        }

    def load_state_dict(self, state: dict[str, list[int]]) -> None:
        if len(state["status"]) != len(self._status):
            raise ValueError("status checkpoint does not match table geometry")
        self._status = [PageStatus(v) for v in state["status"]]
        self._live = list(state["live"])
        self._secured = list(state["secured"])
        self._invalid = list(state["invalid"])
