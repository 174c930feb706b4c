"""Live campaign progress on stderr -- ``--progress``.

Long fleet/torture/age campaigns otherwise run silent until the
merged report appears.  A :class:`ProgressReporter` attached to the
grid runner streams one line per shard completion to *stderr* (stdout
stays reserved for artifacts: progress on or off must leave every
emitted file and stdout byte byte-identical, which CI asserts)::

    [fleet] shard 7/24 done (erSSD) | 3 cached | backlog 17 | 1.8 shard/s | eta 9s

Wall-clock readings feed only the rate/ETA fields of these ephemeral
lines, never an artifact -- which is why this lives in ``analysis``
(SIM07 keeps the wall clock out of ``repro/sim`` and ``repro/fleet``)
and why the runner calls the reporter from the parent process's merge
loop only.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Callable, TextIO

if TYPE_CHECKING:
    from repro.analysis.parallel import GridTask


class ProgressReporter:
    """Streams shard-completion, backlog, and ETA lines to stderr.

    The grid runner drives it: :meth:`begin` once with the shard total,
    :meth:`done` per completed shard (in completion order -- this is
    observability, not the merge), :meth:`retry` when a shard is rerun,
    :meth:`finish` at the end.  ``clock`` is injectable for tests; the
    default is the wall clock, which is fine *here* because nothing
    downstream of stderr is compared.
    """

    def __init__(
        self,
        label: str,
        stream: TextIO | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock if clock is not None else time.monotonic
        self.total = 0
        self.cached = 0
        self.completed = 0
        self.retried = 0
        self._t0 = 0.0

    # ------------------------------------------------------------------
    def _emit(self, text: str) -> None:
        self.stream.write(f"[{self.label}] {text}\n")
        self.stream.flush()

    def begin(self, total: int, cached: int = 0) -> None:
        self.total = total
        self.cached = cached
        self.completed = 0
        self._t0 = self.clock()
        fresh = total - cached
        note = f", {cached} served from cache" if cached else ""
        self._emit(f"{total} shard(s): running {fresh}{note}")

    def done(self, task: GridTask) -> None:
        self.completed += 1
        backlog = max(0, self.total - self.cached - self.completed)
        elapsed = max(self.clock() - self._t0, 1e-9)
        rate = self.completed / elapsed
        eta = f"{backlog / rate:.0f}s" if rate > 0 and backlog else "0s"
        self._emit(
            f"shard {self.cached + self.completed}/{self.total} done "
            f"({task.variant}/{task.workload}) | backlog {backlog} | "
            f"{rate:.2f} shard/s | eta {eta}"
        )

    def retry(self, task: GridTask) -> None:
        self.retried += 1
        self._emit(
            f"shard {task.index} ({task.variant}/{task.workload}) "
            "failed once; retrying with the same seed"
        )

    def finish(self) -> None:
        elapsed = self.clock() - self._t0
        retried = f", {self.retried} retried" if self.retried else ""
        self._emit(
            f"complete: {self.completed} run, {self.cached} cached"
            f"{retried} in {elapsed:.1f}s"
        )
