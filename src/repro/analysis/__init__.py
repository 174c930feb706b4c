"""Experiment runners, metric aggregation, and table rendering."""

from repro.analysis.experiments import (
    FIGURE14_VARIANTS,
    FIGURE14_WORKLOADS,
    Figure14Result,
    VariantOutcome,
    VersioningStudyResult,
    run_figure14,
    run_secure_fraction_sweep,
    run_timeplot_study,
    run_versioning_study,
    run_workload_on_variant,
)
from repro.analysis.latency import (
    TAIL_LATENCY_VARIANTS,
    format_tail_latency,
    policy_for_variant,
    run_tail_latency_study,
)
from repro.analysis.lifetime import (
    LifetimeEstimate,
    WearStats,
    erase_reduction,
)
from repro.analysis.overheads import (
    AreaOverhead,
    LatencyOverhead,
    summarize_overheads,
)
from repro.analysis.tables import (
    format_figure14,
    format_secure_fraction,
    format_table1,
    render_table,
)
from repro.analysis.tracing import (
    TracedRun,
    format_trace_summary,
    parse_sample_spec,
    run_traced_study,
    write_trace_files,
)
from repro.analysis.torture import (
    CHECKPOINT_MODES,
    DEFAULT_RATES,
    TORTURE_VARIANTS,
    TortureCase,
    TortureScorecard,
    run_checkpoint_case,
    run_power_loss_case,
    run_torture,
    torture_requests,
    traced_rate_case,
)

__all__ = [
    "AreaOverhead",
    "CHECKPOINT_MODES",
    "DEFAULT_RATES",
    "FIGURE14_VARIANTS",
    "FIGURE14_WORKLOADS",
    "Figure14Result",
    "TAIL_LATENCY_VARIANTS",
    "TORTURE_VARIANTS",
    "TortureCase",
    "TortureScorecard",
    "TracedRun",
    "LatencyOverhead",
    "LifetimeEstimate",
    "WearStats",
    "erase_reduction",
    "VariantOutcome",
    "VersioningStudyResult",
    "format_figure14",
    "format_secure_fraction",
    "format_table1",
    "format_tail_latency",
    "format_trace_summary",
    "parse_sample_spec",
    "policy_for_variant",
    "render_table",
    "run_checkpoint_case",
    "run_figure14",
    "run_power_loss_case",
    "run_secure_fraction_sweep",
    "run_tail_latency_study",
    "run_timeplot_study",
    "run_torture",
    "run_traced_study",
    "run_versioning_study",
    "run_workload_on_variant",
    "summarize_overheads",
    "torture_requests",
    "traced_rate_case",
    "write_trace_files",
]
