"""Deterministic discrete-event queueing simulation of the SSD variants.

The open-loop :class:`~repro.ftl.timing.TimingModel` answers "how fast
can the device go"; this package answers "how long does a request
*wait*".  It replays the same captured block traces through a
discrete-event engine with per-chip and per-channel service queues,
seeded load generators, and pluggable scheduling policies (FIFO, read
priority, erase/program suspension, sanitization-lock deferral), turning
erSSD vs scrSSD vs secSSD *tail latency* into a first-class result.

Entry points: :func:`~repro.sim.runner.simulate_workload` (and the
``repro simulate`` / ``repro trace`` CLI subcommands built on it).
Rule SIM07 keeps every module here free of wall-clock and module-level
RNG calls, so identical seeds give byte-identical reports.
"""

from repro.sim.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    ClosedLoopArrivals,
    PoissonArrivals,
)
from repro.sim.engine import EngineReport, QueueingEngine, Segment, Server
from repro.sim.events import SimClock
from repro.sim.metrics import PERCENTILES, DepthSeries, LatencyRecorder, percentile
from repro.sim.ops import (
    LOCK_KINDS,
    SUSPENDABLE_KINDS,
    FlashOp,
    OpKind,
    RecordingTiming,
)
from repro.sim.policies import (
    POLICIES,
    DeferLocksPolicy,
    FifoPolicy,
    ReadPriorityPolicy,
    SchedulingPolicy,
    SuspendPolicy,
    policy_by_name,
)
from repro.sim.runner import SimResult, capture_block_trace, simulate_workload

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "ClosedLoopArrivals",
    "DeferLocksPolicy",
    "DepthSeries",
    "EngineReport",
    "FifoPolicy",
    "FlashOp",
    "LOCK_KINDS",
    "LatencyRecorder",
    "OpKind",
    "PERCENTILES",
    "POLICIES",
    "PoissonArrivals",
    "QueueingEngine",
    "ReadPriorityPolicy",
    "RecordingTiming",
    "SUSPENDABLE_KINDS",
    "SchedulingPolicy",
    "Segment",
    "Server",
    "SimClock",
    "SimResult",
    "SuspendPolicy",
    "capture_block_trace",
    "percentile",
    "policy_by_name",
    "simulate_workload",
]
