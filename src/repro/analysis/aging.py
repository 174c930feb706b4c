"""Device-aging lifetime campaigns -- ``repro age``.

Answers the lifetime question the paper implies but never runs
(Sections 1 and 7): *does secSSD's erase-avoidance extend device
lifetime versus erSSD?*  Each variant replays the same long-horizon
workload on a device with a real ``pe_limit`` until its first block
dies (or the horizon ends), and the per-variant
:class:`~repro.analysis.lifetime.LifetimeReport` compares the measured
host-pages-to-first-block-death, wear evenness, and the lock-vs-erase
wear attribution.

Execution shape:

* each variant's run is a :func:`~repro.checkpoint.campaign.
  run_chunked_simulation` campaign in its own subdirectory of the
  campaign root -- killable at any point and resumed byte-identically
  (resume is detected from the stored campaign manifest, so the same
  invocation works fresh or interrupted);
* campaigns stop early through the ``first-wearout``
  :data:`~repro.checkpoint.campaign.STOP_CONDITIONS` predicate,
  evaluated only at checkpoint boundaries -- the halt point is a pure
  function of the request index, which keeps serial == ``--jobs N`` ==
  kill+resume byte-identity and stops endurance-limited variants
  before grown-bad retirement spirals into pool exhaustion;
* variants fan out over :func:`~repro.analysis.parallel.run_grid`
  workers; each worker returns the report as a plain dict (never the
  device -- an SSD holds unpicklable wiring), and completed shards
  persist in a :class:`~repro.analysis.parallel.GridResultCache` under
  ``<root>/results``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.analysis.lifetime import LifetimeReport
from repro.analysis.parallel import (
    GridResultCache,
    GridTask,
    run_grid_detailed,
)
from repro.analysis.tables import render_table
from repro.checkpoint.campaign import run_chunked_simulation
from repro.checkpoint.store import CheckpointStore
from repro.ssd.config import SSDConfig
from repro.telemetry import MetricsRegistry

if TYPE_CHECKING:
    from repro.analysis.progress import ProgressReporter

#: the Figure-14 comparison set, in canonical (grid) order.
AGING_VARIANTS = ("baseline", "secSSD", "erSSD", "scrSSD")


@dataclass(frozen=True)
class AgingCase:
    """One variant's campaign parameters (picklable grid payload)."""

    config: SSDConfig
    workload: str
    variant: str
    seed: int
    write_multiplier: float
    checkpoint_every: int
    #: this variant's campaign directory (``<root>/ck/<variant>``).
    directory: str
    checked: bool | None
    #: generations to write before exiting (kill simulation), or None.
    stop_after: int | None


def _run_age_case(task: GridTask) -> dict[str, Any] | None:
    """Worker: run (or resume) one variant's campaign, return the report.

    Module-level and dict-returning, so ``--jobs N`` can pickle both the
    function and its result.  Resume is auto-detected: a stored campaign
    manifest means an earlier invocation was interrupted, and resuming
    it is byte-identical to having never stopped.
    """
    case = task.payload
    assert isinstance(case, AgingCase)
    resume = (
        CheckpointStore(case.directory).read_campaign_manifest() is not None
    )
    result = run_chunked_simulation(
        case.config,
        case.workload,
        case.variant,
        case.directory,
        case.checkpoint_every,
        seed=case.seed,
        write_multiplier=case.write_multiplier,
        checked=case.checked,
        resume=resume,
        stop_after=case.stop_after,
        stop_when="first-wearout",
    )
    if result is None:
        return None  # stop_after fired: campaign paused, not finished
    return LifetimeReport.from_result(
        result, pe_limit=case.config.pe_limit
    ).to_dict()


def run_aging_campaign(
    config: SSDConfig,
    workload: str,
    directory: str | Path,
    checkpoint_every: int,
    variants: tuple[str, ...] = AGING_VARIANTS,
    seed: int = 1,
    write_multiplier: float = 1.0,
    checked: bool | None = None,
    jobs: int = 1,
    stop_after: int | None = None,
    progress: "ProgressReporter | None" = None,
) -> dict[str, Any]:
    """Run the per-variant lifetime campaign grid; merge the reports.

    Returns ``{"workload", "pe_limit", "reports": {variant: report
    dict}, "cached_shards", "retried_shards"}`` -- byte-identical for
    any ``jobs`` count and across kill+resume.  With ``stop_after``,
    campaigns pause after that many new checkpoint generations and the
    result is ``{"paused": True, ...}`` instead; re-invoking with the
    same directory continues them (the per-variant checkpoint stores
    carry all state, so nothing is cached at the grid layer until a
    variant's campaign actually completes).
    """
    root = Path(directory)
    tasks = [
        GridTask(
            index=index,
            variant=variant,
            workload=workload,
            seed=seed,
            payload=AgingCase(
                config=config,
                workload=workload,
                variant=variant,
                seed=seed,
                write_multiplier=write_multiplier,
                checkpoint_every=checkpoint_every,
                directory=str(root / "ck" / variant),
                checked=checked,
                stop_after=stop_after,
            ),
        )
        for index, variant in enumerate(variants)
    ]
    # the grid cache only ever sees *finished* reports: paused runs
    # (stop_after) return None, which must not be served on resume, so
    # the cache is bypassed entirely for pausing invocations.
    cache = (
        None
        if stop_after is not None
        else GridResultCache(root / "results")
    )
    grid = run_grid_detailed(
        _run_age_case, tasks, jobs=jobs, cache=cache, progress=progress
    )
    if any(result is None for result in grid.results):
        return {
            "paused": True,
            "workload": workload,
            "pe_limit": config.pe_limit,
            "variants": list(variants),
        }
    reports = {
        task.variant: result
        for task, result in zip(tasks, grid.results)
    }
    return {
        "workload": workload,
        "pe_limit": config.pe_limit,
        "reports": reports,
        "cached_shards": grid.cached_shards,
        "retried_shards": grid.retried_shards,
    }


def wear_gauges(reports: dict[str, dict[str, Any]]) -> dict[str, object]:
    """Per-variant wear gauges of a finished campaign's reports, as a
    :class:`~repro.telemetry.MetricsRegistry` snapshot."""
    metrics = MetricsRegistry()
    for variant, report in reports.items():
        wear = report["wear"]
        metrics.gauge(f"age.{variant}.erase_spread").set(
            float(wear["max_erases"] - wear["min_erases"])
        )
        metrics.gauge(f"age.{variant}.max_erases").set(
            float(wear["max_erases"])
        )
        metrics.gauge(f"age.{variant}.worn_out_blocks").set(
            float(report["worn_out_blocks"])
        )
        metrics.gauge(f"age.{variant}.retired_blocks").set(
            float(report["grown_bad_blocks"])
        )
    return metrics.snapshot()


def format_lifetime(payload: dict[str, Any]) -> str:
    """Human-readable lifetime table from a campaign payload."""
    reports = {
        variant: LifetimeReport.from_dict(data)
        for variant, data in payload["reports"].items()
    }
    rows = []
    for variant, report in reports.items():
        death = (
            "survived"
            if report.survived
            else str(report.host_pages_to_first_block_death)
        )
        rows.append(
            [
                variant,
                death,
                str(report.worn_out_blocks),
                str(report.grown_bad_blocks),
                f"{report.erases_per_host_page:.4f}",
                f"{report.wear.evenness:.3f}",
                str(report.plocks + report.block_locks),
                str(report.flash_erases),
            ]
        )
    pe = payload.get("pe_limit")
    title = (
        f"Device aging: {payload['workload']}, "
        f"pe_limit={'none' if pe is None else pe} "
        "(host pages to first block death; higher/survived is better)"
    )
    table = render_table(
        [
            "variant",
            "first death",
            "worn",
            "grown-bad",
            "erases/page",
            "evenness",
            "locks",
            "erases",
        ],
        rows,
        title=title,
    )
    lines = [table]
    secure = reports.get("secSSD")
    erase = reports.get("erSSD")
    if secure is not None and erase is not None:
        if secure.death_rank >= erase.death_rank:
            verdict = (
                "secSSD outlives erSSD: lock-based sanitization avoids "
                "the erases that kill blocks"
            )
        else:
            verdict = "WARNING: erSSD outlived secSSD on this horizon"
        lines.append(verdict)
    return "\n".join(lines)
