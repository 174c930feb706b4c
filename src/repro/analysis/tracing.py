"""Traced simulation runs -- ``repro trace`` / ``--trace-out``.

Glue between the closed-loop engine and the :mod:`repro.telemetry`
exporters: run one workload on each requested variant with a fresh
:class:`~repro.telemetry.Telemetry` session attached, then merge the
per-variant event streams into one Chrome-trace-event file (one trace
*process* per variant, so Perfetto shows the variants side by side on
the same simulated time axis).

File I/O and path handling live here, outside :mod:`repro.telemetry`
itself, just as wall-clock timing stays out of :mod:`repro.sim`
(the host-time benchmark in ``benchmarks/perf/`` times runs from
outside the package).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.latency import policy_for_variant
from repro.analysis.tables import render_table
from repro.sim.arrivals import ArrivalProcess, ClosedLoopArrivals
from repro.sim.policies import policy_by_name
from repro.sim.runner import SimResult, simulate_workload
from repro.ssd.config import SSDConfig
from repro.telemetry import Telemetry
from repro.telemetry.export import to_jsonl, trace_header, write_chrome_trace


@dataclass
class TracedRun:
    """One simulated variant plus the telemetry it recorded."""

    sim: SimResult
    telemetry: Telemetry
    #: run-identity fields carried into the export headers (workload,
    #: variant, seed, geometry) so a trace file is self-describing
    #: evidence for the audit layer.
    meta: dict[str, object] | None = None

    def header(self) -> dict[str, object]:
        """Evidence-disclosure header for this run's event stream."""
        return trace_header(self.telemetry.bus, **(self.meta or {}))


def run_traced_study(
    config: SSDConfig,
    workload: str,
    variants: tuple[str, ...],
    seed: int = 1,
    write_multiplier: float = 1.0,
    policy: str = "auto",
    arrivals: ArrivalProcess | None = None,
    capacity: int = 65536,
    sample: dict[str, int] | None = None,
    checked: bool | None = None,
    check_interval: int | None = None,
) -> dict[str, TracedRun]:
    """Run each variant with its own telemetry session, same block trace.

    ``policy="auto"`` picks each variant's honest best (the tail-latency
    study's convention); anything else is resolved by name and applied
    uniformly.  The returned mapping preserves ``variants`` order.
    """
    out: dict[str, TracedRun] = {}
    for variant in variants:
        telemetry = Telemetry(capacity=capacity, sample=sample)
        sim = simulate_workload(
            config,
            workload,
            variant,
            seed=seed,
            write_multiplier=write_multiplier,
            policy=(
                policy_for_variant(variant)
                if policy == "auto"
                else policy_by_name(policy)
            ),
            arrivals=arrivals if arrivals is not None else ClosedLoopArrivals(32),
            checked=checked,
            check_interval=check_interval,
            telemetry=telemetry,
        )
        out[variant] = TracedRun(
            sim=sim,
            telemetry=telemetry,
            meta={
                "workload": workload,
                "variant": variant,
                "seed": seed,
                "pages_per_block": config.geometry.pages_per_block,
                "sanitize_latency_us": config.sanitize_latency_us(),
            },
        )
    return out


def write_trace_files(
    runs: dict[str, TracedRun],
    out: str | Path,
    jsonl: str | Path | None = None,
) -> list[Path]:
    """Export a study: one merged Chrome trace, optional per-variant JSONL.

    The Chrome trace holds every variant as its own process.  JSONL has
    no process axis, so with several variants each gets its own file
    (``trace.secSSD.jsonl`` next to the requested path); a single
    variant writes exactly the requested path.
    """
    written: list[Path] = []
    target = Path(out)
    headers = {name: run.header() for name, run in runs.items()}
    write_chrome_trace(
        target,
        {name: run.telemetry.bus.events for name, run in runs.items()},
        headers=headers,
    )
    written.append(target)
    if jsonl is not None:
        base = Path(jsonl)
        for name, run in runs.items():
            path = (
                base
                if len(runs) == 1
                else base.with_name(f"{base.stem}.{name}{base.suffix}")
            )
            path.write_text(
                to_jsonl(run.telemetry.bus.events, header=headers[name])
            )
            written.append(path)
    return written


def format_trace_summary(runs: dict[str, TracedRun]) -> str:
    """Per-variant retention/volume table for the CLI."""
    rows = []
    for name, run in runs.items():
        stats = run.telemetry.bus.stats()
        published: dict[str, int] = stats["published"]  # type: ignore[assignment]
        top = sorted(published.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        rows.append(
            [
                name,
                str(sum(published.values())),
                str(stats["retained"]),
                str(stats["dropped"]),
                str(stats["sampled_out"]),
                ", ".join(f"{cat}={n}" for cat, n in top),
            ]
        )
    return render_table(
        ["variant", "published", "retained", "dropped", "sampled", "top categories"],
        rows,
        title="Telemetry event streams",
    )


def parse_sample_spec(spec: list[str] | None) -> dict[str, int] | None:
    """``["ftl.page=8", "sim.service=4"]`` -> category stride mapping."""
    if not spec:
        return None
    out: dict[str, int] = {}
    for item in spec:
        cat, sep, stride = item.partition("=")
        if not sep or not cat:
            raise ValueError(f"bad sample spec {item!r} (want category=N)")
        out[cat] = int(stride)
    return out


def trace_payload_summary(path: str | Path) -> dict[str, object]:
    """Cheap post-write stats of a Chrome trace file (for smoke checks)."""
    payload = json.loads(Path(path).read_text())
    events = payload["traceEvents"]
    return {
        "n_events": len(events),
        "n_processes": len(
            {e["pid"] for e in events if e.get("ph") != "M"}
        ),
        "phases": sorted({e["ph"] for e in events}),
    }
