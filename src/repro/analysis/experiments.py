"""System-level experiment runners (Table 1, Figure 4, Figure 14).

Each runner replays identical file-level traces against one or more SSD
variants and aggregates the paper's metrics.  Benchmarks and examples
both call into this module so that every reproduction of a table/figure
goes through exactly one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ftl.stats import RunResult
from repro.host.filesystem import FileSystem
from repro.host.trace import TraceReplayer
from repro.host.vertrace import TimeplotSample, VerTrace
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.workloads import WORKLOADS

#: variant order used across Figure 14 outputs.
FIGURE14_VARIANTS = ("baseline", "erSSD", "scrSSD", "secSSD_nobLock", "secSSD")

#: workload order used across Figure 14 outputs.
FIGURE14_WORKLOADS = ("MailServer", "DBServer", "FileServer", "Mobile")


@dataclass
class VariantOutcome:
    """One (workload, variant) cell of Figure 14."""

    workload: str
    variant: str
    result: RunResult
    normalized_iops: float = 0.0
    normalized_waf: float = 0.0


@dataclass
class Figure14Result:
    """All cells for one workload, plus derived headline ratios."""

    workload: str
    outcomes: dict[str, VariantOutcome] = field(default_factory=dict)

    def iops_ratio(self, variant_a: str, variant_b: str) -> float:
        """IOPS(a) / IOPS(b)."""
        return (
            self.outcomes[variant_a].result.iops
            / self.outcomes[variant_b].result.iops
        )

    def erase_reduction_vs(self, other: str, variant: str = "secSSD") -> float:
        """Relative reduction in block erasures of ``variant`` vs ``other``."""
        ours = self.outcomes[variant].result.stats.flash_erases
        theirs = self.outcomes[other].result.stats.flash_erases
        if theirs == 0:
            return 0.0
        return 1.0 - ours / theirs

    def plock_reduction_from_block_lock(self) -> float:
        """How much bLock cuts the pLock count (secSSD vs secSSD_nobLock)."""
        without = self.outcomes["secSSD_nobLock"].result.stats.plocks
        with_b = self.outcomes["secSSD"].result.stats.plocks
        if without == 0:
            return 0.0
        return 1.0 - with_b / without


def run_workload_on_variant(
    config: SSDConfig,
    workload: str,
    variant: str,
    seed: int = 1,
    secure_fraction: float = 1.0,
    write_multiplier: float = 1.0,
    observer=None,
    checked: bool | None = None,
    check_interval: int | None = None,
) -> RunResult:
    """Replay one workload trace on one SSD variant.

    ``checked=True`` attaches the runtime invariant sanitizer; a
    violation surfaces as :class:`repro.checkers.sanitizer.InvariantViolation`.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ssd = SSD(
        config,
        variant,
        observer=observer,
        seed=seed,
        checked=checked,
        check_interval=check_interval,
    )
    fs = FileSystem(ssd)
    generator = WORKLOADS[workload](
        capacity_pages=config.logical_pages,
        seed=seed,
        secure_fraction=secure_fraction,
    )
    TraceReplayer(fs).replay(generator.ops(write_multiplier=write_multiplier))
    return ssd.result()


def run_figure14(
    config: SSDConfig,
    workloads: tuple[str, ...] = FIGURE14_WORKLOADS,
    variants: tuple[str, ...] = FIGURE14_VARIANTS,
    seed: int = 1,
    write_multiplier: float = 1.0,
    secure_fraction: float = 1.0,
) -> dict[str, Figure14Result]:
    """Figure 14(a)/(b): normalized IOPS and WAF per workload x variant.

    Every variant replays the *identical* trace (same generator seed).
    Results are normalized to the ``baseline`` variant per workload.
    """
    if "baseline" not in variants:
        raise ValueError("the baseline variant is required for normalization")
    out: dict[str, Figure14Result] = {}
    for workload in workloads:
        fig = Figure14Result(workload)
        for variant in variants:
            result = run_workload_on_variant(
                config,
                workload,
                variant,
                seed=seed,
                secure_fraction=secure_fraction,
                write_multiplier=write_multiplier,
            )
            fig.outcomes[variant] = VariantOutcome(workload, variant, result)
        base = fig.outcomes["baseline"].result
        for outcome in fig.outcomes.values():
            outcome.normalized_iops = outcome.result.normalized_iops(base)
            outcome.normalized_waf = (
                outcome.result.normalized_waf(base) if base.waf > 0 else 0.0
            )
        out[workload] = fig
    return out


def run_secure_fraction_sweep(
    config: SSDConfig,
    workloads: tuple[str, ...] = FIGURE14_WORKLOADS,
    fractions: tuple[float, ...] = (0.6, 0.7, 0.8, 0.9, 1.0),
    seed: int = 1,
    write_multiplier: float = 1.0,
) -> dict[str, dict[float, float]]:
    """Figure 14(c): secSSD IOPS vs fraction of secured data.

    Returns workload -> {secure fraction -> normalized IOPS} where the
    normalization baseline is the no-sanitization SSD replaying the same
    (all-secure-tagged) trace.
    """
    out: dict[str, dict[float, float]] = {}
    for workload in workloads:
        base = run_workload_on_variant(
            config,
            workload,
            "baseline",
            seed=seed,
            write_multiplier=write_multiplier,
        )
        series: dict[float, float] = {}
        for fraction in fractions:
            result = run_workload_on_variant(
                config,
                workload,
                "secSSD",
                seed=seed,
                secure_fraction=fraction,
                write_multiplier=write_multiplier,
            )
            series[fraction] = result.normalized_iops(base)
        out[workload] = series
    return out


# ---------------------------------------------------------------------------
# Table 1 / Figure 4 (data versioning study)
# ---------------------------------------------------------------------------
@dataclass
class VersioningStudyResult:
    """Output of the Section 3 study for one workload."""

    workload: str
    summary: dict[str, dict[str, float]]
    profiler: VerTrace
    run: RunResult


def run_versioning_study(
    config: SSDConfig,
    workload: str,
    seed: int = 1,
    write_multiplier: float = 4.0,
    variant: str = "baseline",
) -> VersioningStudyResult:
    """Table 1: replay a workload with VerTrace attached to the FTL.

    The paper's protocol: pre-fill 75 % of capacity (the generators'
    setup phase), then write four device capacities of steady-state
    traffic; VAF and Tinsecure are computed per file and aggregated per
    UV/MV class.
    """
    profiler = VerTrace.for_config(config)
    ssd = SSD(config, variant, observer=profiler, seed=seed)
    fs = FileSystem(ssd)
    generator = WORKLOADS[workload](
        capacity_pages=config.logical_pages, seed=seed
    )
    TraceReplayer(fs).replay(generator.ops(write_multiplier=write_multiplier))
    profiler.close()
    return VersioningStudyResult(
        workload=workload,
        summary=profiler.summarize(),
        profiler=profiler,
        run=ssd.result(),
    )


def run_timeplot_study(
    config: SSDConfig,
    workload: str,
    seed: int = 1,
    write_multiplier: float = 4.0,
) -> dict[str, list[TimeplotSample]]:
    """Figure 4: N_valid/N_invalid trajectories of a UV and an MV file.

    Tracks every file, then returns the trajectories of the UV file and
    the MV file with the largest ``max_invalid`` -- the paper's fmb / fdb
    selection criterion ("to highlight different data versioning
    patterns").
    """
    profiler = VerTrace.for_config(config, track_all=True)
    ssd = SSD(config, "baseline", observer=profiler, seed=seed)
    fs = FileSystem(ssd)
    generator = WORKLOADS[workload](
        capacity_pages=config.logical_pages, seed=seed
    )
    TraceReplayer(fs).replay(generator.ops(write_multiplier=write_multiplier))
    profiler.close()

    best: dict[str, tuple[int, int]] = {}
    for state in profiler.files():
        cls = "mv" if state.multi_version else "uv"
        if state.max_valid == 0:
            continue
        score = state.max_invalid
        if cls not in best or score > best[cls][1]:
            best[cls] = (state.fid, score)
    return {cls: profiler.timeplot(fid) for cls, (fid, _) in best.items()}
