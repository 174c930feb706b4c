"""Parallel experiment orchestrator -- the only multiprocessing site.

Experiment sweeps (``repro torture``, ``fleet``, ``age``) are grids of
fully independent cells: each cell builds its own device from a frozen
:class:`~repro.ssd.config.SSDConfig` and its own seed, runs, and
returns a picklable result.  This module fans such grids over worker
processes while keeping the one property the whole repo is built on:
**the merged output is byte-identical to a serial run.**

The determinism contract (DESIGN.md section 3g):

* tasks are enumerated in a single canonical order before any work
  starts; results are merged *in that order*, never in completion
  order;
* every task carries its own seed, derived up front (either the
  caller's per-case seed, or :func:`derive_seed` -- a SHA-256 hash of
  the task coordinates, never Python's salted ``hash``);
* workers receive pickled copies of frozen inputs, so no task can
  observe another task's mutations;
* results carry no wall-clock readings, so nothing machine-dependent
  reaches a merged artifact.

Rule SIM09 enforces the "only here" part: ``multiprocessing`` /
``concurrent.futures`` imports anywhere else in the package are lint
errors, so every fan-out inherits this contract instead of reinventing
a subtly order-dependent one.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.checkpoint.codec import (
    CodecError,
    canonical_dumps,
    decode,
    encode,
    section_checksum,
)

if TYPE_CHECKING:
    from repro.analysis.progress import ProgressReporter


@dataclass(frozen=True)
class GridTask:
    """One cell of an experiment grid.

    ``index`` is the cell's position in the canonical enumeration
    order (also the merge order).  ``variant``/``workload``/``seed``
    name the cell for humans -- they are what a failure report leads
    with.  ``payload`` carries whatever else the runner function
    needs; it must be picklable for ``jobs > 1``.
    """

    index: int
    variant: str
    workload: str
    seed: int
    payload: object = None


class GridTaskError(RuntimeError):
    """A grid cell failed; the message names the failing cell.

    Worker tracebacks cross the process boundary stripped down to the
    exception object, so the wrapper restores the context a person
    needs first: *which* (variant, workload, seed) cell died and what
    the original exception said.  The original exception is chained as
    ``__cause__``.
    """

    def __init__(self, task: GridTask, cause: BaseException) -> None:
        self.task = task
        super().__init__(
            f"grid task {task.index} failed "
            f"(variant={task.variant!r}, workload={task.workload!r}, "
            f"seed={task.seed}): {type(cause).__name__}: {cause}"
        )


def derive_seed(
    base: int, *coordinates: object, domain: str | None = None
) -> int:
    """A deterministic 63-bit per-task seed from grid coordinates.

    Hashes ``base`` plus the coordinate tuple with SHA-256 -- stable
    across processes, platforms, and Python versions, unlike the
    built-in ``hash`` (salted per process, so it would silently break
    the serial/parallel byte-identity contract).

    ``domain`` is a separation tag for independent seed families:
    two subsystems sharing one master seed (say a torture grid and a
    fleet shard plan) pass distinct domains so their derived streams
    can never collide, even for identical coordinate tuples.  Omitting
    it preserves the historical derivation byte-for-byte, so existing
    call sites keep their seeds.
    """
    text = ":".join([repr(base), *map(repr, coordinates)])
    if domain is not None:
        # NUL can never appear in the undomained form (it is built from
        # repr() output), so domained and undomained texts are disjoint.
        text = f"{domain}\x00{text}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class GridResultCache:
    """Durable per-shard results for resumable grids.

    One file per completed task (``task-<index>.json``), written
    atomically (tmp + rename) through the :mod:`repro.checkpoint.codec`
    tagged-JSON format with an embedded SHA-256 checksum.  A re-run of
    the same grid with the same cache directory skips every shard whose
    file validates -- a crashed sweep resumes from its last completed
    shard instead of recomputing the grid.

    Safety matches the checkpoint store's: a cache file that is
    truncated, bit-flipped, or keyed to different task coordinates is
    quarantined (renamed ``*.corrupt``) and the shard is recomputed;
    corruption can cost work, never correctness.

    ``to_state``/``from_state`` adapt non-JSON-native results (e.g. a
    dataclass's ``to_dict``/``from_dict`` pair); the default identity
    pair suits plain dict/list results.
    """

    def __init__(
        self,
        root: str | Path,
        to_state: Callable[[object], object] | None = None,
        from_state: Callable[[object], object] | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._to_state = to_state if to_state is not None else (lambda r: r)
        self._from_state = (
            from_state if from_state is not None else (lambda s: s)
        )
        #: shards served from disk by the last :func:`run_grid_detailed`.
        self.hits = 0

    @staticmethod
    def _key(task: GridTask) -> dict[str, object]:
        return {
            "index": task.index,
            "variant": task.variant,
            "workload": task.workload,
            "seed": task.seed,
        }

    def _path(self, task: GridTask) -> Path:
        return self.root / f"task-{task.index:06d}.json"

    def _quarantine(self, path: Path) -> None:
        target = path.with_suffix(".json.corrupt")
        n = 1
        while target.exists():  # pragma: no cover - repeat corruption
            n += 1
            target = path.with_suffix(f".json.corrupt.{n}")
        os.rename(path, target)

    def load(self, task: GridTask) -> tuple[bool, object]:
        """``(True, result)`` on a validated hit, ``(False, None)`` else."""
        path = self._path(task)
        if not path.exists():
            return False, None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload["key"] != self._key(task):
                raise ValueError("cache file keyed to different coordinates")
            body = canonical_dumps(payload["result"])
            if section_checksum(body) != payload["checksum"]:
                raise ValueError("checksum mismatch")
            result = self._from_state(decode(payload["result"]))
        except (OSError, ValueError, KeyError, TypeError, CodecError):
            self._quarantine(path)
            return False, None
        return True, result

    def store(self, task: GridTask, result: object) -> None:
        encoded = encode(self._to_state(result))
        payload = {
            "key": self._key(task),
            "checksum": section_checksum(canonical_dumps(encoded)),
            "result": encoded,
        }
        path = self._path(task)
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(canonical_dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.rename(tmp, path)


@dataclass
class GridResult:
    """Merged grid output plus the shard-level recovery accounting."""

    results: list[object]
    #: shards that failed once and succeeded on their single retry.
    retried_shards: int = 0
    #: canonical indices of those shards, ascending.
    retried: tuple[int, ...] = ()
    #: shards served from a :class:`GridResultCache` instead of run.
    cached_shards: int = 0


def _first_pass(
    fn: Callable[[GridTask], object],
    pending: Sequence[GridTask],
    jobs: int,
    progress: ProgressReporter | None = None,
) -> dict[int, object | BaseException]:
    """Run every pending task once; map index -> result or exception.

    Progress is reported in *completion* order (that is what a human
    watching a campaign wants to see) while the returned mapping is
    keyed by canonical index, so downstream merging stays byte-identical
    with or without a reporter attached.
    """
    outcome: dict[int, object | BaseException] = {}
    if jobs == 1 or len(pending) <= 1:
        for task in pending:
            try:
                outcome[task.index] = fn(task)
            except Exception as exc:
                outcome[task.index] = exc
            if progress is not None:
                progress.done(task)
        return outcome
    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        task_of = {pool.submit(fn, task): task for task in pending}
        for future in as_completed(task_of):
            task = task_of[future]
            try:
                outcome[task.index] = future.result()
            except Exception as exc:
                outcome[task.index] = exc
            if progress is not None:
                progress.done(task)
    return outcome


def run_grid_detailed(
    fn: Callable[[GridTask], object],
    tasks: Iterable[GridTask],
    jobs: int = 1,
    cache: GridResultCache | None = None,
    progress: ProgressReporter | None = None,
) -> GridResult:
    """:func:`run_grid` plus retry/cache accounting.

    **Bounded retry**: a shard that fails its first attempt is retried
    exactly once, in-process, with the identical task (the re-derived
    seed is unchanged -- a retry must compute the same cell, not a
    luckier one).  Retries run in ascending canonical index order after
    the first pass completes, so which shard retried first never
    depends on pool scheduling.  A shard that fails *twice* raises
    :class:`GridTaskError` for the lowest-indexed such cell, with the
    second failure chained as ``__cause__``.

    **Cache**: with a :class:`GridResultCache`, validated cached shards
    are returned without running ``fn`` and fresh results are persisted
    as soon as they are computed, so a crashed sweep's next invocation
    resumes from its last completed shard.
    """
    ordered: Sequence[GridTask] = list(tasks)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    merged: dict[int, object] = {}
    cached = 0
    pending: list[GridTask] = []
    for task in ordered:
        if cache is not None:
            hit, result = cache.load(task)
            if hit:
                merged[task.index] = result
                cached += 1
                continue
        pending.append(task)
    if cache is not None:
        cache.hits = cached
    if progress is not None:
        progress.begin(len(ordered), cached=cached)
    outcome = _first_pass(fn, pending, jobs, progress=progress)
    retried: list[int] = []
    failures: list[tuple[GridTask, BaseException]] = []
    for task in pending:
        result = outcome[task.index]
        if isinstance(result, BaseException):
            # single bounded retry, same task, same seed, in index order
            if progress is not None:
                progress.retry(task)
            try:
                result = fn(task)
            except Exception as exc:
                failures.append((task, exc))
                continue
            retried.append(task.index)
        merged[task.index] = result
        if cache is not None:
            cache.store(task, result)
    if progress is not None:
        progress.finish()
    if failures:
        task, cause = failures[0]
        raise GridTaskError(task, cause) from cause
    return GridResult(
        results=[merged[task.index] for task in ordered],
        retried_shards=len(retried),
        retried=tuple(retried),
        cached_shards=cached,
    )


def run_grid(
    fn: Callable[[GridTask], object],
    tasks: Iterable[GridTask],
    jobs: int = 1,
) -> list[object]:
    """Run every task through ``fn``; results in canonical task order.

    ``jobs <= 1`` runs in-process (no worker pool, no pickling) --
    the reference execution the parallel path must match byte-for-byte.
    ``jobs > 1`` fans tasks over a process pool; ``fn`` and each
    task's payload must then be picklable (module-level function,
    frozen-dataclass arguments).

    A shard that fails is retried once (see :func:`run_grid_detailed`);
    a shard that fails twice raises :class:`GridTaskError` naming the
    lowest-indexed failing cell.
    """
    return run_grid_detailed(fn, tasks, jobs=jobs).results
