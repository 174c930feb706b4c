"""Cross-fleet aggregation: merge per-device runs into one report.

The per-device unit of record is a JSON-primitive dict
(:func:`device_report`) so shard caching round-trips it losslessly;
:func:`aggregate_fleet` then folds the devices of each variant into the
distributions the campaign is actually run for:

* **WAF spread** across devices (min/p25/p50/p75/p95/max) -- fleet
  heterogeneity that single-device studies cannot show;
* **per-tenant p99** -- the tenant-weighted distribution of device p99
  latencies (tenants share their device's queue, so a tenant's p99 is
  approximated by its device's p99 weighted by tenant count; see
  DESIGN.md section 3j);
* **sanitization backlog over time** -- each device's queued
  sanitization-work step series sampled onto a common normalized time
  grid and summed fleet-wide, which is where a deletion storm shows up
  as a correlated burst rather than independent blips;
* **lock-vs-erase cost** -- flash-time spent on lock pulses vs.
  sanitization erases / scrubbing / relocation, the paper's central
  cost comparison, summed over the fleet.

Everything lands in one dict of JSON primitives, published through a
:class:`~repro.telemetry.MetricsRegistry` snapshot under ``"metrics"``.
Wall-clock readings and shard accounting stay out: the report must be
byte-identical across serial, parallel, and resumed campaigns.
"""

from __future__ import annotations

from repro.fleet.tenants import DeviceSpec, FleetConfig, TenantWorkload
from repro.sim.metrics import spread_indices
from repro.sim.runner import SimResult
from repro.ssd.config import SSDConfig
from repro.telemetry import MetricsRegistry
from repro.telemetry.histogram import percentile

__all__ = [
    "device_report",
    "aggregate_fleet",
    "format_fleet",
]

#: points on the normalized [0, 1] campaign-time grid for fleet curves.
GRID_POINTS = 65

#: per-device backlog curve points kept in the report.
CURVE_POINTS = 64

#: DeviceStats counters carried into each device record.
_STAT_KEYS = (
    "host_writes",
    "host_trims",
    "flash_programs",
    "flash_erases",
    "gc_copies",
    "plocks",
    "block_locks",
    "scrubs",
    "relocation_copies",
    "sanitize_erases",
)


def sanitize_costs(
    config: SSDConfig, stats_counts: dict[str, int]
) -> dict[str, float]:
    """Flash-time cost split of sanitization work, in microseconds.

    ``lock_us`` is Evanesco's path (pLock/bLock pulses); ``erase_us`` +
    ``relocation_us`` is the erase-based path (immediate erases plus
    the page copies needed to empty shared blocks first); ``scrub_us``
    is the scrub-program path.  One relocation copy costs a read, a
    program, and two bus transfers.
    """
    return {
        "lock_us": (
            stats_counts["plocks"] * config.t_plock_us
            + stats_counts["block_locks"] * config.t_block_lock_us
        ),
        "erase_us": stats_counts["sanitize_erases"] * config.t_erase_us,
        "scrub_us": stats_counts["scrubs"] * config.t_scrub_us,
        "relocation_us": stats_counts["relocation_copies"]
        * (config.t_read_us + config.t_prog_us + 2.0 * config.t_xfer_us),
    }


def device_report(
    config: SSDConfig,
    cfg: FleetConfig,
    spec: DeviceSpec,
    generator: TenantWorkload,
    result: SimResult,
) -> dict[str, object]:
    """One device's run as JSON primitives (the shard cache unit)."""
    report = result.report
    stats = result.run.stats
    counts = {key: getattr(stats, key) for key in _STAT_KEYS}
    curve = report.sanitize_backlog
    return {
        "device": spec.device_id,
        "tenants": spec.tenants,
        "weight": spec.weight,
        "traffic_scale": spec.traffic_scale,
        "elapsed_us": report.sim_elapsed_us,
        "iops": report.iops,
        "waf": result.run.waf,
        "p99_read_us": report.latency["read"]["p99_us"],
        "p99_all_us": report.latency["all"]["p99_us"],
        "backlog_peak_us": report.sanitize_backlog_peak_us,
        "backlog_mean_us": report.sanitize_backlog_mean_us,
        "backlog": [list(curve[j]) for j in spread_indices(len(curve), CURVE_POINTS)],
        "stats": counts,
        "cost": sanitize_costs(config, counts),
        "storms": generator.storm_counters(),
    }


# ----------------------------------------------------------------------
# fleet-wide folds
# ----------------------------------------------------------------------
def _spread(values: list[float]) -> dict[str, float]:
    ordered = sorted(values)
    return {
        "min": ordered[0] if ordered else 0.0,
        "p25": percentile(ordered, 25.0),
        "p50": percentile(ordered, 50.0),
        "p75": percentile(ordered, 75.0),
        "p95": percentile(ordered, 95.0),
        "max": ordered[-1] if ordered else 0.0,
    }


def _weighted_percentile(
    pairs: list[tuple[float, float]], q: float
) -> float:
    """Weighted nearest-rank percentile of (value, weight) pairs."""
    ordered = sorted(pairs)
    total = sum(weight for _, weight in ordered)
    if total <= 0.0:
        return 0.0
    target = q / 100.0 * total
    cum = 0.0
    for value, weight in ordered:
        cum += weight
        if cum >= target:
            return value
    return ordered[-1][0]


def _level_at(curve: list[list[float]], time_us: float) -> float:
    """Step-function value of a (time, level) series at ``time_us``."""
    level = 0.0
    for t, value in curve:
        if t > time_us:
            break
        level = value
    return level


def _fleet_backlog(devices: list[dict[str, object]]) -> list[list[float]]:
    """Sum device backlog step series on a normalized time grid.

    Devices finish at different simulated times, so the grid is each
    device's own [0, elapsed] range normalized to [0, 1]: point *i* is
    the fleet-wide queued sanitization work when every device is at the
    same logical fraction of its campaign.
    """
    grid = []
    for i in range(GRID_POINTS):
        fraction = i / (GRID_POINTS - 1)
        total = 0.0
        for device in devices:
            elapsed = float(device["elapsed_us"])  # type: ignore[arg-type]
            total += _level_at(
                device["backlog"], fraction * elapsed  # type: ignore[arg-type]
            )
        grid.append([fraction, total])
    return grid


def _fold_certificates(
    devices: list[dict[str, object]],
) -> dict[str, object] | None:
    """Fleet-level exposure/coverage gauges from per-device certificates.

    Each audited device record carries its signed certificate plus the
    verifier's verdict (``repro.fleet.scheduler._shard_task`` issues
    them in-worker, forensic probe included).  The fold reads only the
    certificate's chained evidence sections -- exposure summary and
    ledger accounting -- so the fleet gauges are backed by exactly the
    bytes an offline re-verification would check.
    """
    audited = [d["audit"] for d in devices if "audit" in d]
    if not audited:
        return None
    exposures = [
        a["certificate"]["sections"]["exposure"] for a in audited  # type: ignore[index]
    ]
    ledgers = [
        a["certificate"]["sections"]["ledger"] for a in audited  # type: ignore[index]
    ]
    return {
        "certified_devices": len(audited),
        "verified_ok": sum(
            1 for a in audited if a["report"]["ok"]  # type: ignore[index]
        ),
        "windows": sum(int(e["count"]) for e in exposures),
        "exposure_p50_us": percentile(
            sorted(float(e["p50_us"]) for e in exposures), 50.0
        ),
        "exposure_p99_us": max(
            (float(e["p99_us"]) for e in exposures), default=0.0
        ),
        "exposure_max_us": max(
            (float(e["max_us"]) for e in exposures), default=0.0
        ),
        "residual_secured": sum(
            int(led["residual_secured"]) for led in ledgers
        ),
    }


def aggregate_fleet(
    cfg: FleetConfig, shard_results: list[object]
) -> dict[str, object]:
    """Merge canonical-order shard results into the fleet report.

    ``shard_results`` is :func:`repro.fleet.scheduler.run_fleet`'s
    merged grid output: variants outer, shards inner, devices ascending
    within each shard -- so per-variant device lists are already in
    canonical device order and the fold is deterministic.
    """
    by_variant: dict[str, list[dict[str, object]]] = {
        variant: [] for variant in cfg.variants
    }
    for shard in shard_results:
        by_variant[shard["variant"]].extend(shard["devices"])  # type: ignore[index]
    registry = MetricsRegistry()
    variants: dict[str, object] = {}
    for variant in cfg.variants:
        devices = by_variant[variant]
        wafs = [float(d["waf"]) for d in devices]
        p99_pairs = [
            (float(d["p99_all_us"]), float(d["tenants"])) for d in devices
        ]
        backlog = _fleet_backlog(devices)
        peak = max((level for _, level in backlog), default=0.0)
        mean = (
            sum(level for _, level in backlog) / len(backlog)
            if backlog
            else 0.0
        )
        cost = {
            key: sum(float(d["cost"][key]) for d in devices)  # type: ignore[index]
            for key in ("lock_us", "erase_us", "scrub_us", "relocation_us")
        }
        storms = {
            key: sum(int(d["storms"][key]) for d in devices)  # type: ignore[index]
            for key in (
                "storms_fired",
                "storm_tenants_hit",
                "storm_files_deleted",
                "storm_pages_deleted",
            )
        }
        totals = {
            key: sum(int(d["stats"][key]) for d in devices)  # type: ignore[index]
            for key in _STAT_KEYS
        }
        summary = {
            "devices": len(devices),
            "iops_total": sum(float(d["iops"]) for d in devices),
            "waf_spread": _spread(wafs),
            "tenant_p99_us": {
                "p50": _weighted_percentile(p99_pairs, 50.0),
                "p90": _weighted_percentile(p99_pairs, 90.0),
                "p99": _weighted_percentile(p99_pairs, 99.0),
            },
            "backlog": backlog,
            "backlog_peak_us": peak,
            "backlog_mean_us": mean,
            "cost": cost,
            "storms": storms,
            "stats": totals,
            "devices_detail": devices,
        }
        sanitization = _fold_certificates(devices)
        if sanitization is not None:
            summary["sanitization"] = sanitization
        variants[variant] = summary
        prefix = f"fleet.{variant}"
        registry.gauge(f"{prefix}.backlog_peak_us").set(peak)
        registry.gauge(f"{prefix}.backlog_mean_us").set(mean)
        registry.gauge(f"{prefix}.waf_p50").set(summary["waf_spread"]["p50"])  # type: ignore[index]
        registry.gauge(f"{prefix}.tenant_p99_us").set(
            summary["tenant_p99_us"]["p99"]  # type: ignore[index]
        )
        registry.counter(f"{prefix}.storm_files_deleted").inc(
            storms["storm_files_deleted"]
        )
        registry.gauge(f"{prefix}.lock_cost_us").set(cost["lock_us"])
        registry.gauge(f"{prefix}.erase_cost_us").set(
            cost["erase_us"] + cost["relocation_us"]
        )
        if sanitization is not None:
            registry.gauge(f"{prefix}.certified_devices").set(
                sanitization["certified_devices"]
            )
            registry.gauge(f"{prefix}.audit_failures").set(
                sanitization["certified_devices"]
                - sanitization["verified_ok"]  # type: ignore[operator]
            )
            registry.gauge(f"{prefix}.exposure_p99_us").set(
                sanitization["exposure_p99_us"]
            )
            registry.gauge(f"{prefix}.residual_secured").set(
                sanitization["residual_secured"]
            )
    return {
        "config": {
            "devices": cfg.devices,
            "tenants": cfg.tenants,
            "seed": cfg.seed,
            "variants": list(cfg.variants),
            "base_workload": cfg.base_workload,
            "zipf_s": cfg.zipf_s,
            "spread": cfg.spread,
            "storm": cfg.storm,
            "storm_count": cfg.storm_count,
            "storm_fraction": cfg.storm_fraction,
            "fingerprint": cfg.fingerprint(),
        },
        "variants": variants,
        "metrics": registry.snapshot(),
    }


def format_fleet(report: dict[str, object]) -> str:
    """The fleet report as an aligned summary table."""
    config = report["config"]  # type: ignore[index]
    lines = [
        "fleet: {devices} devices, {tenants} tenants, storm={storm}"
        " (x{storm_count}, {storm_fraction:.0%} of tenants)".format(**config)
    ]
    header = (
        f"{'variant':<16} {'waf p50':>8} {'tenant p99 us':>14}"
        f" {'backlog peak ms':>16} {'lock ms':>10} {'erase ms':>10}"
        f" {'storm dels':>10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for variant, summary in report["variants"].items():  # type: ignore[union-attr]
        cost = summary["cost"]
        lines.append(
            f"{variant:<16}"
            f" {summary['waf_spread']['p50']:>8.2f}"
            f" {summary['tenant_p99_us']['p99']:>14.0f}"
            f" {summary['backlog_peak_us'] / 1000.0:>16.2f}"
            f" {cost['lock_us'] / 1000.0:>10.2f}"
            f" {(cost['erase_us'] + cost['relocation_us']) / 1000.0:>10.2f}"
            f" {summary['storms']['storm_files_deleted']:>10}"
        )
    audited = [
        (variant, summary["sanitization"])
        for variant, summary in report["variants"].items()  # type: ignore[union-attr]
        if "sanitization" in summary
    ]
    if audited:
        lines.append("")
        header = (
            f"{'variant':<16} {'certified':>10} {'verified ok':>12}"
            f" {'windows':>9} {'exposure p99 us':>16} {'residual':>9}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for variant, sanitization in audited:
            lines.append(
                f"{variant:<16}"
                f" {sanitization['certified_devices']:>10}"
                f" {sanitization['verified_ok']:>12}"
                f" {sanitization['windows']:>9}"
                f" {sanitization['exposure_p99_us']:>16.0f}"
                f" {sanitization['residual_secured']:>9}"
            )
    return "\n".join(lines)
