"""Fleet campaign scheduler: device shards over the grid runner.

A campaign is a grid of *(variant, device-shard)* cells.  Each cell
renders its shard's device traces (variant-independent seeds), replays
them through the closed-loop engine with the variant's honest-best
scheduling policy, and returns one JSON-primitive report per device.
Everything fans out through :func:`repro.analysis.parallel.run_grid`
-- the repo's single multiprocessing site (rule SIM09) -- which is
what buys the fleet the established determinism contract for free:

* tasks enumerated in canonical order (variants outer, shards inner),
  merged in that order, never in completion order;
* per-shard seeds from :func:`derive_seed` under the ``"fleet"``
  domain, so fleet seeds can never collide with other grids' seeds
  that share the same master seed;
* shard results persisted through :class:`GridResultCache`, so a
  killed campaign resumes from its last completed shard and the merged
  report is byte-identical to an uninterrupted run.

Shard cache keys embed :meth:`FleetConfig.fingerprint`, so a resume
directory can never serve shards from a differently-parameterized
campaign -- mismatched keys quarantine and recompute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.latency import policy_for_variant
from repro.analysis.parallel import (
    GridResultCache,
    GridTask,
    derive_seed,
    run_grid_detailed,
)
from repro.audit.run import (
    audit_sim_result,
    audit_telemetry,
    config_fingerprint,
)
from repro.fleet.report import aggregate_fleet, device_report
from repro.fleet.tenants import (
    DeviceSpec,
    FleetConfig,
    TenantWorkload,
    compile_fleet,
)
from repro.sim.arrivals import ClosedLoopArrivals
from repro.sim.runner import SimResult, capture_generator_trace, simulate_trace
from repro.ssd.config import SSDConfig, scaled_config
from repro.telemetry import Telemetry, TraceEvent
from repro.telemetry.export import trace_header, write_chrome_trace, write_jsonl

if TYPE_CHECKING:
    from repro.analysis.progress import ProgressReporter

__all__ = [
    "FleetRun",
    "device_config",
    "run_device",
    "plan_tasks",
    "run_fleet",
    "write_fleet_traces",
]


def device_config(cfg: FleetConfig) -> SSDConfig:
    """The (small) per-device geometry every fleet device shares."""
    return scaled_config(
        blocks_per_chip=cfg.device_blocks,
        wordlines_per_block=cfg.device_wordlines,
    )


def run_device(
    cfg: FleetConfig,
    spec: DeviceSpec,
    variant: str,
    telemetry: Telemetry | None = None,
) -> tuple[TenantWorkload, SimResult]:
    """Render one device's tenant trace and replay it on one variant.

    The trace capture depends only on (cfg, spec) -- never the variant
    -- so all variants see identical host traffic, and the write budget
    scales with the device's share of fleet traffic weight.  Passing a
    :class:`~repro.telemetry.Telemetry` session records the device's
    structured event stream (the audit/trace paths attach one).
    """
    config = device_config(cfg)
    generator = TenantWorkload(cfg, spec, config.logical_pages)
    write_pages = int(
        config.logical_pages * cfg.write_multiplier * spec.traffic_scale
    )
    requests, steady_start = capture_generator_trace(
        config, generator, write_pages
    )
    result = simulate_trace(
        config,
        workload=f"fleet-device-{spec.device_id}",
        variant=variant,
        requests=requests,
        steady_start=steady_start,
        seed=spec.seed,
        policy=policy_for_variant(variant),
        arrivals=ClosedLoopArrivals(cfg.queue_depth),
        telemetry=telemetry,
    )
    return generator, result


def _shards(cfg: FleetConfig, specs: tuple[DeviceSpec, ...]):
    return [
        specs[i: i + cfg.devices_per_shard]
        for i in range(0, len(specs), cfg.devices_per_shard)
    ]


def plan_tasks(
    cfg: FleetConfig,
    specs: tuple[DeviceSpec, ...],
    audit: bool = False,
    trace: bool = False,
) -> list[GridTask]:
    """The canonical task enumeration: variants outer, shards inner.

    ``audit``/``trace`` grow each shard's result with per-device
    certificates / event streams, so they are folded into the workload
    label: shard cache keys embed the label, and an audit-enabled
    campaign must never be served a cached shard that carries no
    evidence (or vice versa).
    """
    shards = _shards(cfg, specs)
    fingerprint = cfg.fingerprint()
    tag = ("+audit" if audit else "") + ("+trace" if trace else "")
    tasks = []
    for variant in cfg.variants:
        for shard_index, chunk in enumerate(shards):
            tasks.append(
                GridTask(
                    index=len(tasks),
                    variant=variant,
                    workload=f"fleet-{fingerprint}[{shard_index}]{tag}",
                    seed=derive_seed(
                        cfg.seed,
                        "shard",
                        variant,
                        shard_index,
                        domain="fleet",
                    ),
                    payload=(cfg, chunk, audit, trace),
                )
            )
    return tasks


def _device_header(
    telemetry: Telemetry,
    config: SSDConfig,
    spec: DeviceSpec,
    variant: str,
) -> dict[str, object]:
    """The evidence-disclosure header for one fleet device's stream."""
    return trace_header(
        telemetry.bus,
        workload=f"fleet-device-{spec.device_id}",
        variant=variant,
        seed=spec.seed,
        device=spec.device_id,
        pages_per_block=config.geometry.pages_per_block,
        config_fingerprint=config_fingerprint(config),
        sanitize_latency_us=config.sanitize_latency_us(),
    )


def _shard_task(task: GridTask) -> dict[str, object]:
    """Worker entry point (module-level: picklable for ``jobs > 1``).

    Returns only JSON primitives so the shard cache round-trips results
    identically and the merged report serializes byte-identically.
    With ``audit`` each device record gains a signed sanitization
    certificate (issued and forensically verified here, while the
    simulated device is still alive); with ``trace`` it gains the raw
    event stream plus header for the merge-time trace export.
    """
    cfg, chunk, audit, trace = task.payload  # type: ignore[misc]
    config = device_config(cfg)
    devices = []
    for spec in chunk:
        telemetry = audit_telemetry() if (audit or trace) else None
        generator, result = run_device(
            cfg, spec, task.variant, telemetry=telemetry
        )
        record = device_report(config, cfg, spec, generator, result)
        if audit:
            assert telemetry is not None
            audited = audit_sim_result(
                result,
                telemetry,
                config,
                seed=spec.seed,
                device=spec.device_id,
            )
            record["audit"] = audited.to_dict()
        if trace:
            assert telemetry is not None
            record["trace"] = {
                "header": _device_header(
                    telemetry, config, spec, task.variant
                ),
                "events": [
                    [e.name, e.cat, e.ph, e.ts_us, e.dur_us, e.tid, dict(e.args)]
                    for e in telemetry.bus.events
                ],
            }
        devices.append(record)
    return {"variant": task.variant, "devices": devices}


def write_fleet_traces(
    out_dir: str | Path, shard_results: list[object]
) -> list[Path]:
    """Export a traced campaign: per-device JSONL + one merged Chrome trace.

    ``shard_results`` is the merged grid output (canonical order), so
    file enumeration -- and therefore the merged trace's process order
    -- is deterministic.  Each device's JSONL leads with its disclosure
    header; the Chrome trace carries every ``variant/device`` stream as
    its own process with the header attached as process metadata.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    processes: dict[str, list[TraceEvent]] = {}
    headers: dict[str, dict[str, object]] = {}
    for shard in shard_results:
        variant = shard["variant"]  # type: ignore[index]
        for device in shard["devices"]:  # type: ignore[index]
            payload = device.get("trace")
            if payload is None:
                continue
            events = [
                TraceEvent(name, cat, ph, ts_us, dur_us=dur_us, tid=tid, args=args)
                for name, cat, ph, ts_us, dur_us, tid, args in payload["events"]
            ]
            name = f"{variant}-device-{int(device['device']):04d}"
            path = out / f"{name}.jsonl"
            write_jsonl(path, events, header=payload["header"])
            written.append(path)
            processes[name] = events
            headers[name] = payload["header"]
    merged = out / "trace.json"
    write_chrome_trace(merged, processes, headers=headers)
    written.append(merged)
    return written


def _strip_traces(shard_results: list[object]) -> None:
    """Drop raw event payloads before aggregation: the fleet report must
    not depend on whether ``--trace-out`` was requested."""
    for shard in shard_results:
        for device in shard["devices"]:  # type: ignore[index]
            device.pop("trace", None)


@dataclass
class FleetRun:
    """A completed campaign: the merged report plus shard accounting.

    The accounting (cache hits, retries) intentionally stays *outside*
    ``report``: it differs between fresh and resumed invocations, while
    the report must be byte-identical across them.
    """

    report: dict[str, object]
    shards: int
    cached_shards: int
    retried_shards: int
    #: files written by ``--trace-out`` (empty when tracing was off).
    trace_files: list[Path] = field(default_factory=list)


def run_fleet(
    cfg: FleetConfig,
    jobs: int = 1,
    resume_dir: str | Path | None = None,
    stop_after_shards: int | None = None,
    audit: bool = False,
    trace_dir: str | Path | None = None,
    progress: ProgressReporter | None = None,
) -> FleetRun | None:
    """Run a whole fleet campaign; ``None`` when stopped early.

    ``resume_dir`` persists per-shard results; re-running with the same
    directory (and the same config -- the fingerprint in each cache key
    enforces it) resumes from the last completed shard.
    ``stop_after_shards`` runs only the first N pending cells and then
    returns ``None`` -- the injected-kill hook the resume smoke tests
    use to interrupt a campaign at a deterministic point.

    ``audit`` issues a signed sanitization certificate per device and
    folds the fleet-level exposure/coverage gauges into the report;
    ``trace_dir`` exports per-device JSONL streams plus one merged
    Chrome trace there.  ``progress`` streams shard-completion lines to
    stderr and has zero effect on any artifact.
    """
    specs = compile_fleet(cfg)
    trace = trace_dir is not None
    tasks = plan_tasks(cfg, specs, audit=audit, trace=trace)
    cache = (
        GridResultCache(resume_dir) if resume_dir is not None else None
    )
    if stop_after_shards is not None:
        run_grid_detailed(
            _shard_task,
            tasks[:stop_after_shards],
            jobs=jobs,
            cache=cache,
            progress=progress,
        )
        return None
    grid = run_grid_detailed(
        _shard_task, tasks, jobs=jobs, cache=cache, progress=progress
    )
    trace_files: list[Path] = []
    if trace_dir is not None:
        trace_files = write_fleet_traces(trace_dir, grid.results)
        _strip_traces(grid.results)
    report = aggregate_fleet(cfg, grid.results)
    return FleetRun(
        report=report,
        shards=len(tasks),
        cached_shards=grid.cached_shards,
        retried_shards=grid.retried_shards,
        trace_files=trace_files,
    )
