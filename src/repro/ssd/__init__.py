"""SSD device model: configuration, FTL variant, and telemetry wiring.

The request types, run statistics and timing model live in
:mod:`repro.ftl` (they are the FTL's own input, counters and cost
model) and are re-exported here.
"""

from repro.ftl.request import (
    IoRequest,
    RequestFlags,
    RequestOp,
    read,
    trim,
    write,
)
from repro.ftl.stats import DeviceStats, RunResult
from repro.ftl.timing import TimingModel
from repro.ssd.config import SSDConfig, paper_config, scaled_config
from repro.ssd.device import SSD

__all__ = [
    "DeviceStats",
    "IoRequest",
    "RequestFlags",
    "RequestOp",
    "RunResult",
    "SSD",
    "SSDConfig",
    "TimingModel",
    "paper_config",
    "read",
    "scaled_config",
    "trim",
    "write",
]
