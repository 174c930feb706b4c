"""Per-request device-work accounting (sanitization tail analysis).

Average IOPS hides the paper's most user-visible difference between
sanitization techniques: *tail behaviour*.  On erSSD a single secured
overwrite can trigger a whole-block relocation storm; on secSSD it adds
one 100-us pLock.  The work log records, per host request, how much
device busy-time the request added across all chips and channels --
i.e., the amount of flash work the request caused, including any GC or
sanitization it triggered -- and reports percentiles.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.ftl.request import RequestOp
from repro.telemetry.histogram import percentile as _nearest_rank


@dataclass
class WorkLog:
    """Per-request work samples, grouped by request type."""

    samples: dict[RequestOp, array] = field(
        default_factory=lambda: {op: array("d") for op in RequestOp}
    )

    def record(self, op: RequestOp, work_us: float) -> None:
        self.samples[op].append(work_us)

    def count(self, op: RequestOp | None = None) -> int:
        if op is not None:
            return len(self.samples[op])
        return sum(len(v) for v in self.samples.values())

    # ------------------------------------------------------------------
    def percentile(self, q: float, op: RequestOp | None = None) -> float:
        """q-th percentile (0-100) of per-request work in microseconds.

        Nearest-rank, via the one shared implementation in
        :mod:`repro.telemetry.histogram`.
        """
        return _nearest_rank(sorted(self._select(op)), q)

    def mean(self, op: RequestOp | None = None) -> float:
        data = self._select(op)
        if not data:
            return 0.0
        return sum(data) / len(data)

    def max(self, op: RequestOp | None = None) -> float:
        data = self._select(op)
        return max(data, default=0.0)

    def summary(self, op: RequestOp | None = None) -> dict[str, float]:
        data = self._select(op)
        ordered = sorted(data)
        return {
            "count": float(len(data)),
            # summed in insertion order, as mean() does
            "mean_us": sum(data) / len(data) if data else 0.0,
            "p50_us": _nearest_rank(ordered, 50),
            "p99_us": _nearest_rank(ordered, 99),
            "max_us": max(data, default=0.0),
        }

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, list[float]]:
        """Checkpoint payload, keyed by the op's string value."""
        return {op.value: values.tolist() for op, values in self.samples.items()}

    def load_state_dict(self, state: dict[str, list[float]]) -> None:
        self.samples = {op: array("d", state.get(op.value, ())) for op in RequestOp}

    # ------------------------------------------------------------------
    def _select(self, op: RequestOp | None) -> array:
        if op is not None:
            return self.samples[op]
        merged = array("d")
        for values in self.samples.values():
            merged.extend(values)
        return merged
