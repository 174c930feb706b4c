"""Tail-latency study: the closed-loop companion to Figure 14.

Average IOPS (Figure 14a) understates the user-visible difference
between the sanitization techniques: one erSSD deallocation puts a
3.5-ms erase train on the critical path, which throughput amortizes but
a p99 cannot hide.  This study replays the identical captured block
trace through the :mod:`repro.sim` queueing engine on every variant and
reports end-to-end host-read percentiles.

Each variant runs under its *honest best* scheduling policy:

* ``baseline`` / ``erSSD`` / ``scrSSD`` -- ``read_priority``.  Their
  sanitization work (immediate erasure, overwrite scrubbing) is on the
  deallocation critical path by design; suspending or deferring it
  would reopen the very exposure window the technique exists to close.
* ``secSSD`` variants -- ``defer``: lock-pulse deferral plus
  erase/program suspension, both safe because sanitization happens at
  invalidation time via pLock/bLock and GC erasure is pure space
  reclamation (see :mod:`repro.sim.policies`).

Run with ``checked=True`` (the default here) the runtime sanitizer
probes every sanitized page for real unreadability *while* deferral is
active -- the study asserts the paper's latency win without weakening
its security claim.
"""

from __future__ import annotations

from repro.sim.arrivals import ArrivalProcess, ClosedLoopArrivals
from repro.sim.policies import DeferLocksPolicy, ReadPriorityPolicy, SchedulingPolicy
from repro.sim.runner import SimResult, capture_block_trace, simulate_trace
from repro.ssd.config import SSDConfig
from repro.telemetry.histogram import PERCENTILES

from repro.analysis.tables import render_table


def _percentile_header(label: str) -> str:
    """``"p999_us"`` -> ``"p99.9 (us)"`` (column titles from the shared
    :data:`~repro.telemetry.histogram.PERCENTILES` list)."""
    stem = label.removesuffix("_us")
    if len(stem) > 3:  # p999 -> p99.9
        stem = f"{stem[:3]}.{stem[3:]}"
    return f"{stem} (us)"

#: variants compared by the default study, in display order.
TAIL_LATENCY_VARIANTS = ("baseline", "erSSD", "scrSSD", "secSSD")


def policy_for_variant(variant: str) -> SchedulingPolicy:
    """The honest best scheduling policy for one FTL variant."""
    if variant.startswith("secSSD"):
        return DeferLocksPolicy(max_pending=8)
    return ReadPriorityPolicy()


def run_tail_latency_study(
    config: SSDConfig,
    workload: str = "MailServer",
    variants: tuple[str, ...] = TAIL_LATENCY_VARIANTS,
    seed: int = 1,
    write_multiplier: float = 1.0,
    arrivals: ArrivalProcess | None = None,
    checked: bool | None = True,
    check_interval: int | None = 50,
) -> dict[str, SimResult]:
    """Closed-loop tail-latency comparison across SSD variants.

    The block trace is rendered once and every variant replays it; the
    returned mapping preserves ``variants`` order.  ``arrivals`` defaults
    to a closed loop at queue depth 32.
    """
    requests, steady_start = capture_block_trace(
        config, workload, seed=seed, write_multiplier=write_multiplier
    )
    out: dict[str, SimResult] = {}
    for variant in variants:
        out[variant] = simulate_trace(
            config,
            workload,
            variant,
            requests,
            steady_start,
            seed=seed,
            policy=policy_for_variant(variant),
            arrivals=arrivals if arrivals is not None else ClosedLoopArrivals(32),
            checked=checked,
            check_interval=check_interval,
        )
    return out


def format_tail_latency(results: dict[str, SimResult]) -> str:
    """Render the study as a table of host-read latency percentiles."""
    rows = []
    for variant, sim in results.items():
        reads = sim.report.latency["read"]
        rows.append(
            [
                variant,
                sim.policy["name"],
                *(f"{reads[label]:.0f}" for label, _ in PERCENTILES),
                f"{reads['max_us'] / 1000:.2f} ms",
                str(sim.report.deferred_lock_pulses),
                str(sim.report.suspensions),
            ]
        )
    workload = next(iter(results.values())).workload if results else "?"
    return render_table(
        [
            "variant",
            "policy",
            *(_percentile_header(label) for label, _ in PERCENTILES),
            "max",
            "deferred",
            "suspends",
        ],
        rows,
        title=f"Host-read latency under closed-loop queueing ({workload})",
    )
