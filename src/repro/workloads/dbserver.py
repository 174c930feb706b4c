"""DBServer workload -- Table 2 row 2.

Characteristics: read:write 1:10 (write-dominated); overwrites of data
files and log files; write requests of 16-256 KiB (1-16 pages).

Structure: a handful of large table files absorb skewed in-place updates
(hot 20 % of tables receive 80 % of updates, and within a table a hot
region receives most writes -- the classic OLTP pattern that produces the
paper's heavily multi-versioned files with VAF up to ~7.8); a redo log is
overwritten circularly; a set of cold static files created at setup is
never touched again and populates the uni-version class (whose VAF stays
near zero, Table 1's DBServer UV row).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.host.trace import TraceOp, append, create, read, write
from repro.workloads.base import WorkloadGenerator, WorkloadProfile


class DBServerWorkload(WorkloadGenerator):
    """OLTP-style in-place-update workload at 1:10 read:write."""

    profile = WorkloadProfile(
        name="DBServer",
        reads_per_write=0.1,
        write_pattern="overwrite data files and log files",
        write_size_pages=(1, 16),
    )

    n_tables = 4
    #: hot tables (receive ``hot_update_fraction`` of all updates).
    n_hot_tables = 2
    #: fraction of setup capacity given to cold, never-updated files
    #: (a DB server's bulk is cold segments; the update stream hammers a
    #: few small hot tables, which is what drives VAF to ~3-8, Table 1).
    cold_fraction = 0.85
    #: fraction of updates hitting the hot subset of tables.
    hot_update_fraction = 0.9

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tables: list[str] = []
        self._log: str | None = None
        self._log_head = 0

    # ------------------------------------------------------------------
    def setup(self) -> Iterator[TraceOp]:
        """Create tables, log, and cold files with interleaved fills.

        Interleaving the fill chunks mixes cold and hot data in the same
        physical blocks -- when GC later collects a hot block it must
        relocate the cold (uni-version) pages it contains, which is where
        DBServer's small-but-nonzero UV VAF comes from (Table 1).
        """
        budget = int(self.capacity_pages * self.fill_fraction)
        cold_budget = int(budget * self.cold_fraction)
        log_budget = max(4, budget // 20)
        table_budget = max(1, (budget - cold_budget - log_budget) // self.n_tables)

        fill_plan: list[tuple[str, int]] = []
        for _ in range(self.n_tables):
            name = self._new_name("table")
            self._tables.append(name)
            self._track_create(name)
            yield create(name, insec=self._pick_insec())
            fill_plan.append((name, table_budget))

        self._log = self._new_name("redo-log")
        self._track_create(self._log)
        yield create(self._log, insec=self._pick_insec())
        fill_plan.append((self._log, log_budget))

        # most cold files are written contiguously (their blocks stay pure
        # and GC never touches them -> VAF ~ 0); one cold file is mixed
        # into the hot fill and picks up GC copies, giving the small
        # nonzero UV tail of Table 1's DBServer row.
        # one *small* cold file is mixed into the hot fill (it will pick
        # up GC copies, the UV tail of Table 1); the bulk cold files are
        # written contiguously so their blocks stay pure and untouched.
        mixed_cold = self._new_name("cold")
        self._track_create(mixed_cold)
        yield create(mixed_cold, insec=self._pick_insec())
        fill_plan.append((mixed_cold, table_budget))
        bulk_budget = max(1, cold_budget - table_budget)
        n_cold = max(2, self.n_tables * 2)
        cold_size = max(1, bulk_budget // n_cold)
        for _ in range(n_cold):
            name = self._new_name("cold")
            self._track_create(name)
            yield create(name, insec=self._pick_insec())
            self._track_grow(name, cold_size)
            yield append(name, cold_size)

        remaining = {name: pages for name, pages in fill_plan}
        names = [name for name, _ in fill_plan]
        while names:
            for name in list(names):
                chunk = min(remaining[name], self._write_size())
                self._track_grow(name, chunk)
                yield append(name, chunk)
                remaining[name] -= chunk
                if remaining[name] <= 0:
                    names.remove(name)

    def steady(self, total_write_pages: int) -> Iterator[TraceOp]:
        written = 0
        while written < total_write_pages:
            if self.rng.random() < 0.85:
                written += yield from self._update_table()
            else:
                written += yield from self._append_log()
            yield from self._reads()

    # ------------------------------------------------------------------
    def _pick_table(self) -> str:
        hot_count = max(1, self.n_hot_tables)
        if self.rng.random() < self.hot_update_fraction:
            return self._tables[self.rng.randrange(hot_count)]
        return self._tables[self.rng.randrange(len(self._tables))]

    def _update_table(self) -> Iterator[TraceOp]:
        """In-place overwrite of a (skewed) extent of one table."""
        name = self._pick_table()
        size_pages = self._sizes[name]
        if size_pages == 0:
            return 0
        length = min(size_pages, self._write_size())
        # hot head of the table takes most updates
        if self.rng.random() < 0.7:
            window = max(length, size_pages // 5)
        else:
            window = size_pages
        offset = self.rng.randrange(0, max(1, window - length + 1))
        yield write(name, offset, length)
        return length

    def _append_log(self) -> Iterator[TraceOp]:
        """Circularly overwrite the redo log."""
        assert self._log is not None
        size_pages = self._sizes[self._log]
        length = min(size_pages, self._write_size())
        if length == 0:
            return 0
        if self._log_head + length > size_pages:
            self._log_head = 0
        yield write(self._log, self._log_head, length)
        self._log_head += length
        return length

    def _reads(self) -> Iterator[TraceOp]:
        for _ in range(self._reads_due()):
            name = self._random_file()
            if name is None or self._sizes[name] == 0:
                continue
            length = min(self._sizes[name], self._write_size())
            offset = self.rng.randrange(0, self._sizes[name] - length + 1)
            yield read(name, offset, length)
