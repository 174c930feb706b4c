"""End-to-end simulation runs: workload -> block trace -> event engine.

The paper's methodology replays *identical file-level activity* against
every SSD variant so that each variant's FTL determines the physical
outcome.  The closed-loop engine keeps that discipline with one extra
step: because :class:`~repro.host.filesystem.FileSystem` never reads
data back from the device (it only submits block requests), the exact
per-variant request stream can be captured once against a stub device
and then dispatched by the event engine with queueing applied.  The
capture also marks where the generator's setup (pre-fill) phase ends, so
latency percentiles cover only steady state.

:func:`simulate_workload` is the one entry point the CLI, benchmarks,
and examples share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults import FaultPlan
from repro.host.filesystem import FileSystem
from repro.host.trace import TraceReplayer
from repro.sim.arrivals import ArrivalProcess, ClosedLoopArrivals
from repro.sim.engine import EngineReport, QueueingEngine
from repro.sim.ops import RecordingTiming
from repro.sim.policies import SchedulingPolicy, policy_by_name
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.ssd.request import IoRequest
from repro.ssd.stats import RunResult
from repro.telemetry import Telemetry  # lint: disable=SIM14 -- cross-cutting observability seam, zero-cost when disabled
from repro.workloads import WORKLOADS


class _CaptureFtl:
    """Just enough FTL surface for :class:`FileSystem` (logical_time)."""

    logical_time = 0


class _CaptureDevice:
    """Stub device that records the block requests a trace generates."""

    def __init__(self, logical_pages: int) -> None:
        self.logical_pages = logical_pages
        self.ftl = _CaptureFtl()
        self.requests: list[IoRequest] = []
        #: record a request (the list's own ``append``, no wrapper frame)
        self.submit = self.requests.append


def capture_generator_trace(
    config: SSDConfig,
    generator,
    steady_write_pages: int,
) -> tuple[list[IoRequest], int]:
    """Render one generator instance into block requests.

    The generalized capture seam: any object with the
    :class:`~repro.workloads.base.WorkloadGenerator` interface
    (``setup()`` + ``steady(total_write_pages)``) renders into the
    variant-independent block-request stream the engine replays --
    which is how :mod:`repro.fleet` drives tenant-compiled per-device
    workloads through the same pipeline as the named Table-2 traces.

    Returns ``(requests, steady_start)`` where ``steady_start`` is the
    index of the first steady-state request (everything before it is the
    generator's pre-fill and is excluded from latency percentiles).
    """
    capture = _CaptureDevice(config.logical_pages)
    replayer = TraceReplayer(FileSystem(capture))  # type: ignore[arg-type]
    replayer.replay(generator.setup())
    steady_start = len(capture.requests)
    replayer.replay(generator.steady(steady_write_pages))
    return capture.requests, steady_start


def capture_block_trace(
    config: SSDConfig,
    workload: str,
    seed: int = 1,
    secure_fraction: float = 1.0,
    write_multiplier: float = 1.0,
) -> tuple[list[IoRequest], int]:
    """Render one named workload into block requests, variant-independently.

    Returns ``(requests, steady_start)`` where ``steady_start`` is the
    index of the first steady-state request (everything before it is the
    generator's pre-fill and is excluded from latency percentiles).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    generator = WORKLOADS[workload](
        capacity_pages=config.logical_pages,
        seed=seed,
        secure_fraction=secure_fraction,
    )
    return capture_generator_trace(
        config, generator, int(config.logical_pages * write_multiplier)
    )


@dataclass
class SimResult:
    """One closed-loop simulation of one workload on one variant."""

    workload: str
    variant: str
    policy: dict[str, object]
    arrivals: dict[str, object]
    requests: int
    steady_start: int
    report: EngineReport
    run: RunResult
    #: the simulated device itself, for post-run forensic probing by the
    #: audit layer (never serialized; excluded from comparisons).
    device: SSD | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "variant": self.variant,
            "policy": self.policy,
            "arrivals": self.arrivals,
            "requests": self.requests,
            "steady_start": self.steady_start,
            "report": self.report.to_dict(),
        }

    def to_json(self) -> str:
        # imported here: repro.checkpoint imports this module
        from repro.checkpoint.codec import report_dumps

        return report_dumps(self.to_dict())


def simulate_trace(
    config: SSDConfig,
    workload: str,
    variant: str,
    requests: list[IoRequest],
    steady_start: int,
    seed: int = 1,
    policy: SchedulingPolicy | str = "fifo",
    arrivals: ArrivalProcess | None = None,
    checked: bool | None = None,
    check_interval: int | None = None,
    faults: FaultPlan | None = None,
    telemetry: Telemetry | None = None,
) -> SimResult:
    """Simulate a pre-captured block-request trace on one variant.

    The seam between trace capture and queueing simulation: callers
    that render their own traces (the fleet scheduler renders one
    variant-independent trace per device and replays it against every
    variant) dispatch them here.  ``workload`` is only a label carried
    into the result.
    """
    if isinstance(policy, str):
        policy = policy_by_name(policy)
    if arrivals is None:
        arrivals = ClosedLoopArrivals()
    ssd = SSD(
        config,
        variant,
        seed=seed,
        checked=checked,
        check_interval=check_interval,
        faults=faults,
        telemetry=telemetry,
    )
    ssd.instrument_timing(RecordingTiming.from_config(config))
    engine = QueueingEngine(
        ssd, requests, arrivals, policy, steady_start=steady_start
    )
    report = engine.run()
    run = ssd.result()
    run.latency = report.latency
    run.utilization = report.utilization
    return SimResult(
        workload=workload,
        variant=variant,
        policy=policy.describe(),
        arrivals=arrivals.describe(),
        requests=len(requests),
        steady_start=steady_start,
        report=report,
        run=run,
        device=ssd,
    )


def simulate_workload(
    config: SSDConfig,
    workload: str,
    variant: str,
    seed: int = 1,
    secure_fraction: float = 1.0,
    write_multiplier: float = 1.0,
    policy: SchedulingPolicy | str = "fifo",
    arrivals: ArrivalProcess | None = None,
    checked: bool | None = None,
    check_interval: int | None = None,
    faults: FaultPlan | None = None,
    telemetry: Telemetry | None = None,
) -> SimResult:
    """Simulate one workload on one variant under queueing.

    The captured block trace is identical for every variant at a given
    (config, workload, seed), so cross-variant comparisons see the same
    host traffic.  The returned :class:`RunResult` carries the engine's
    latency percentiles and per-resource utilization alongside the usual
    functional statistics.  Passing a :class:`~repro.telemetry.Telemetry`
    session records the run's structured event trace and metrics (the
    engine points the trace clock at the simulated time base).
    """
    requests, steady_start = capture_block_trace(
        config,
        workload,
        seed=seed,
        secure_fraction=secure_fraction,
        write_multiplier=write_multiplier,
    )
    return simulate_trace(
        config,
        workload,
        variant,
        requests,
        steady_start,
        seed=seed,
        policy=policy,
        arrivals=arrivals,
        checked=checked,
        check_interval=check_interval,
        faults=faults,
        telemetry=telemetry,
    )
