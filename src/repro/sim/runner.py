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

The CLI, the studies and the fleet render a trace once
(:func:`capture_block_trace`, or :func:`capture_generator_trace` for a
fleet device's tenants) and hand it to :func:`simulate_trace` for every
variant; :func:`simulate_workload` renders and simulates in one
call.  Both, and the checkpointed campaigns
(:mod:`repro.checkpoint.campaign`), build their engine with
:func:`build_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults import FaultPlan
from repro.ftl.request import IoRequest
from repro.ftl.stats import RunResult
from repro.host.filesystem import FileSystem
from repro.host.trace import TraceReplayer
from repro.sim.arrivals import ArrivalProcess, ClosedLoopArrivals
from repro.sim.engine import EngineReport, QueueingEngine
from repro.sim.ops import RecordingTiming
from repro.sim.policies import SchedulingPolicy, policy_by_name
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.telemetry import Telemetry
from repro.workloads import WORKLOADS


class _CaptureDevice:
    """Stub device that records the block requests a trace generates."""

    def __init__(self, logical_pages: int) -> None:
        self.logical_pages = logical_pages
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
    engine = build_engine(
        config,
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
    return assemble_result(workload, variant, engine, engine.run())


def build_engine(
    config: SSDConfig,
    variant: str,
    requests: list[IoRequest],
    steady_start: int,
    seed: int,
    policy: SchedulingPolicy,
    arrivals: ArrivalProcess,
    checked: bool | None,
    check_interval: int | None,
    faults: FaultPlan | None,
    telemetry: Telemetry | None,
) -> QueueingEngine:
    """A fresh device with timing capture, under a ready engine.

    The one build every run shares: :func:`simulate_trace` and the
    checkpointed campaigns (:mod:`repro.checkpoint.campaign`), which
    rebuild it for each generation a resume tries.  The device is
    ``engine.ssd``.
    """
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
    return QueueingEngine(
        ssd, requests, arrivals, policy, steady_start=steady_start
    )


def assemble_result(
    workload: str, variant: str, engine: QueueingEngine, report: EngineReport
) -> SimResult:
    """The :class:`SimResult` of a finished engine and its report."""
    ssd = engine.ssd
    return SimResult(
        workload=workload,
        variant=variant,
        policy=engine.policy.describe(),
        arrivals=engine.arrivals.describe(),
        requests=len(engine.requests),
        steady_start=engine.steady_start,
        report=report,
        run=ssd.result(),
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
    host traffic.  The result's :class:`EngineReport` carries the
    latency percentiles and per-resource utilization, its
    :class:`RunResult` the device's functional statistics.  Passing a
    :class:`~repro.telemetry.Telemetry` session records the run's
    structured event trace (the engine points the trace clock at the
    simulated time base); it only observes, so the returned result
    equals the untraced run's.
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
