"""Engine throughput benchmark -- ``repro bench`` / ``BENCH_sim.json``.

Measures how fast the discrete-event engine itself runs (wall-clock
events per second) alongside what it simulates (device IOPS, host-read
p99).  The JSON artifact is machine-readable so CI can archive it and
regressions in engine performance show up as a diff, not an anecdote.

Wall-clock timing lives *here*, outside :mod:`repro.sim`, on purpose:
rule SIM07 bans wall-clock access inside the simulation package, and
the benchmark is exactly the measurement that must not leak into it.
The clock is injectable (``timer=``) so tests can swap in
:class:`~repro.analysis.parallel.DeterministicTimer` and assert the
artifact is byte-identical across serial and parallel runs.

``run_bench(jobs=N)`` fans the (variant x repeat) grid over worker
processes via :func:`repro.analysis.parallel.run_grid`; the merge is
in canonical task order, so the *simulated* portion of the artifact is
identical for any job count.  :func:`compare_bench` is the CI gate:
it diffs only the simulated metrics (IOPS, p99) against a committed
baseline -- never the wall-clock numbers, which vary per machine.
"""

from __future__ import annotations

import gc
import platform
import time
from collections.abc import Callable
from pathlib import Path

from repro.analysis.parallel import GridResultCache, GridTask, run_grid_detailed
from repro.analysis.progress import ProgressReporter
from repro.checkpoint.codec import report_dumps
from repro.sim.arrivals import ClosedLoopArrivals
from repro.sim.policies import policy_by_name
from repro.sim.runner import simulate_workload
from repro.ssd.config import SSDConfig

#: default artifact path (repo root when run via the CLI from there).
DEFAULT_BENCH_PATH = "BENCH_sim.json"

#: (metric key, direction): the simulated metrics the compare gate
#: checks.  +1 means higher is better (regression = drop), -1 means
#: lower is better (regression = rise).  Wall-clock-derived metrics
#: (wall_s, events_per_sec) are deliberately absent: they are
#: machine-dependent, and gating on them would make CI flaky.
COMPARE_METRICS: tuple[tuple[str, int], ...] = (
    ("iops", +1),
    ("p99_read_us", -1),
    ("p99_all_us", -1),
)


def bench_once(
    config: SSDConfig,
    workload: str,
    variant: str,
    queue_depth: int,
    policy: str,
    seed: int,
    write_multiplier: float,
    timer: Callable[[], float] | None = None,
) -> dict[str, object]:
    """One timed engine run -> flat metrics dict."""
    clock = timer if timer is not None else time.perf_counter
    # pause cyclic GC for the timed section: the run allocates millions
    # of short-lived tuples/segments and collector pauses add ~15 %
    # wall-clock noise without ever freeing anything (the object graph
    # is alive until the run ends).  Refcounting still reclaims as
    # usual; the pass after `finally` collects any cycles in one sweep.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        sim = simulate_workload(
            config,
            workload,
            variant,
            seed=seed,
            write_multiplier=write_multiplier,
            policy=policy_by_name(policy),
            arrivals=ClosedLoopArrivals(queue_depth),
            checked=False,
        )
        wall_s = clock() - start
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    report = sim.report
    return {
        "workload": workload,
        "variant": variant,
        "policy": policy,
        "queue_depth": queue_depth,
        "requests": sim.requests,
        "events": report.events,
        "wall_s": wall_s,
        "events_per_sec": report.events / wall_s if wall_s > 0 else 0.0,
        "iops": report.iops,
        "p99_read_us": report.latency["read"]["p99_us"],
        "p99_all_us": report.latency["all"]["p99_us"],
        "open_loop_agreement": report.open_loop_agreement,
        # the functional counters, round-trippable via
        # DeviceStats.from_dict -- so a bench artifact diff shows *what*
        # the device did, not just how fast the engine replayed it
        "stats": sim.run.stats.to_dict(),
    }


def _bench_task(task: GridTask) -> dict[str, object]:
    """Grid worker: one timed repeat of one variant (picklable)."""
    queue_depth, policy, write_multiplier, config, timer = task.payload
    return bench_once(
        config,
        task.workload,
        task.variant,
        queue_depth,
        policy,
        task.seed,
        write_multiplier,
        timer=timer,
    )


def run_bench(
    config: SSDConfig,
    workload: str = "Mobile",
    variants: tuple[str, ...] = ("baseline", "secSSD"),
    queue_depth: int = 32,
    policy: str = "fifo",
    seed: int = 1,
    write_multiplier: float = 1.0,
    repeats: int = 3,
    jobs: int = 1,
    timer: Callable[[], float] | None = None,
    resume_dir: str | Path | None = None,
    progress: ProgressReporter | None = None,
) -> dict[str, object]:
    """Benchmark the engine on each variant; keep each variant's best run.

    The simulated metrics (IOPS, p99, events) are identical across
    repeats by determinism -- only wall-clock varies, and the fastest
    repeat is the least-noisy estimate of engine speed.

    ``jobs > 1`` runs the (variant x repeat) grid on worker processes.
    Tasks are enumerated variant-major (all repeats of variant 0, then
    variant 1, ...) and merged in that order; ties on ``wall_s`` keep
    the earliest repeat (strict ``<``), so the merged artifact does not
    depend on completion order.  With the default wall clock only the
    ``wall_s``/``events_per_sec`` numbers differ between job counts;
    with an injected deterministic ``timer`` the artifact is
    byte-identical for any ``jobs``.

    ``resume_dir`` makes the grid checkpoint-aware: each completed
    (variant, repeat) shard is persisted there, and a re-run after a
    crash serves validated shards from disk instead of recomputing
    them (corrupt shard files are quarantined and recomputed).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    payload = (queue_depth, policy, write_multiplier, config, timer)
    tasks = [
        GridTask(
            index=v_index * repeats + repeat,
            variant=variant,
            workload=workload,
            seed=seed,
            payload=payload,
        )
        for v_index, variant in enumerate(variants)
        for repeat in range(repeats)
    ]
    cache = None if resume_dir is None else GridResultCache(resume_dir)
    grid = run_grid_detailed(
        _bench_task, tasks, jobs=jobs, cache=cache, progress=progress
    )
    results = grid.results
    runs = []
    for v_index in range(len(variants)):
        best: dict[str, object] | None = None
        for repeat in range(repeats):
            run = results[v_index * repeats + repeat]
            if best is None or run["wall_s"] < best["wall_s"]:
                best = run
        runs.append(best)
    return {
        "bench": "sim_engine",
        "python": platform.python_version(),
        "config": {
            "blocks_per_chip": config.geometry.blocks_per_chip,
            "wordlines_per_block": config.geometry.wordlines_per_block,
            "n_channels": config.n_channels,
            "chips_per_channel": config.chips_per_channel,
        },
        "repeats": repeats,
        "retried_shards": grid.retried_shards,
        "cached_shards": grid.cached_shards,
        "runs": runs,
        "best_events_per_sec": max(
            (r["events_per_sec"] for r in runs), default=0.0
        ),
    }


def write_bench_json(payload: dict[str, object], path: str | Path) -> Path:
    """Write the benchmark artifact (sorted keys, trailing newline)."""
    target = Path(path)
    target.write_text(report_dumps(payload))
    return target


def compare_bench_detailed(
    current: dict[str, object],
    baseline: dict[str, object],
    tolerance: float = 0.05,
) -> dict[str, object]:
    """Structured diff of simulated metrics vs a committed baseline.

    Returns the full per-(workload, variant) per-metric table -- not
    just the failures -- so a gate trip in CI shows every delta against
    its tolerance band at a glance::

        {
          "tolerance": 0.05,
          "regressed": bool,               # any cell tripped
          "runs": [
            {
              "workload": ..., "variant": ...,
              "missing": False,            # baseline row absent from current
              "metrics": [
                {"metric": "iops", "direction": +1,
                 "baseline": ..., "current": ..., "delta_pct": ...,
                 "limit": ..., "regressed": bool},
                ...
              ],
            },
            ...
          ],
        }

    A run regresses when a :data:`COMPARE_METRICS` metric is worse than
    the baseline by more than ``tolerance`` (a fraction: 0.05 allows
    5 % slack).  The simulated metrics are deterministic for a given
    config+seed, so the band exists to absorb *intended* small model
    adjustments, not machine noise -- wall-clock metrics never
    participate.  A (workload, variant) present in the baseline but
    missing from the current payload is itself a regression (a silently
    dropped variant must not pass the gate); new runs with no baseline
    counterpart are ignored.
    """
    if tolerance < 0.0:
        raise ValueError("tolerance must be >= 0")
    current_runs = {
        (run["workload"], run["variant"]): run for run in current["runs"]
    }
    rows: list[dict[str, object]] = []
    any_regressed = False
    for run in baseline["runs"]:
        key = (run["workload"], run["variant"])
        against = current_runs.get(key)
        row: dict[str, object] = {
            "workload": key[0],
            "variant": key[1],
            "missing": against is None,
            "metrics": [],
        }
        if against is None:
            any_regressed = True
            rows.append(row)
            continue
        for metric, direction in COMPARE_METRICS:
            base = float(run[metric])
            now = float(against[metric])
            if direction > 0:
                limit = base * (1.0 - tolerance)
                regressed = now < limit
            else:
                limit = base * (1.0 + tolerance)
                regressed = now > limit
            any_regressed = any_regressed or regressed
            row["metrics"].append(
                {
                    "metric": metric,
                    "direction": direction,
                    "baseline": base,
                    "current": now,
                    "delta_pct": ((now - base) / base * 100.0) if base else 0.0,
                    "limit": limit,
                    "regressed": regressed,
                }
            )
        rows.append(row)
    return {
        "tolerance": tolerance,
        "regressed": any_regressed,
        "runs": rows,
    }


def format_compare(diff: dict[str, object], verbose: bool = True) -> str:
    """Human-readable rendering of :func:`compare_bench_detailed`.

    ``verbose`` prints every metric cell; without it only the verdict
    header and the failing rows appear (the CI-log-friendly view -- a
    clean gate collapses to one line).
    """
    lines = [
        f"bench compare (tolerance {diff['tolerance']:.0%}): "
        + ("REGRESSED" if diff["regressed"] else "ok")
    ]
    for row in diff["runs"]:
        label = f"{row['workload']}/{row['variant']}"
        if row["missing"]:
            lines.append(
                f"  FAIL {label}: present in baseline but not benchmarked"
            )
            continue
        for cell in row["metrics"]:
            if not verbose and not cell["regressed"]:
                continue
            mark = "FAIL" if cell["regressed"] else "ok  "
            bound = ">=" if cell["direction"] > 0 else "<="
            lines.append(
                f"  {mark} {label}: {cell['metric']} "
                f"{cell['current']:,.1f} vs baseline {cell['baseline']:,.1f} "
                f"({cell['delta_pct']:+.2f}%, allowed {bound} "
                f"{cell['limit']:,.1f})"
            )
    return "\n".join(lines)


def compare_bench(
    current: dict[str, object],
    baseline: dict[str, object],
    tolerance: float = 0.05,
) -> list[str]:
    """One human-readable line per regression (empty list: gate passes).

    The legacy flat view of :func:`compare_bench_detailed` -- see there
    for the gate semantics.
    """
    diff = compare_bench_detailed(current, baseline, tolerance=tolerance)
    problems: list[str] = []
    for row in diff["runs"]:
        label = f"{row['workload']}/{row['variant']}"
        if row["missing"]:
            problems.append(f"{label}: present in baseline but not benchmarked")
            continue
        for cell in row["metrics"]:
            if not cell["regressed"]:
                continue
            bound = ">=" if cell["direction"] > 0 else "<="
            problems.append(
                f"{label}: {cell['metric']} {cell['current']:,.1f} vs "
                f"baseline {cell['baseline']:,.1f} "
                f"(allowed {bound} {cell['limit']:,.1f}, "
                f"tolerance {diff['tolerance']:.0%})"
            )
    return problems


def format_bench(payload: dict[str, object]) -> str:
    """Human-readable one-line-per-run summary."""
    lines = [f"sim engine bench (python {payload['python']}):"]
    for run in payload["runs"]:
        lines.append(
            f"  {run['workload']}/{run['variant']:12s} "
            f"{run['events']:>8} events in {run['wall_s']:.3f}s "
            f"({run['events_per_sec']:,.0f} ev/s)  "
            f"iops={run['iops']:,.0f}  p99r={run['p99_read_us']:.0f}us"
        )
    return "\n".join(lines)
