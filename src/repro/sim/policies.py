"""Scheduling policies: how a chip/channel picks its next operation.

Each simulated resource serves one operation segment at a time from a
priority queue ordered by ``(priority(segment), enqueue seq)``.  The
policy decides the priority, whether in-service cell operations can be
suspended for reads, and whether sanitization lock pulses are deferred
out of the request critical path:

* :class:`FifoPolicy` -- strict arrival order (the open-loop model's
  implicit discipline; the agreement cross-check runs under it);
* :class:`ReadPriorityPolicy` -- host reads overtake queued background
  work: GC relocation reads/programs, erases, and lock pulses (they
  never preempt in-service work);
* :class:`SuspendPolicy` -- read priority plus erase/program suspension:
  a host read arriving at a chip mid-erase pauses the erase, runs, and
  the erase resumes with its remaining time (plus a resume overhead);
* :class:`DeferLocksPolicy` -- suspension plus *sanitization deferral*:
  pLock/bLock pulses leave the request critical path, batch per chip,
  and drain in idle windows (or, at the batch cap, as background work
  behind all host traffic).  Safety is preserved by construction and
  then *checked*: the FTL's functional lock state is applied at
  invalidation time -- before the trim request completes and therefore
  before any later read is dispatched -- so deferral only postpones the
  simulated pulse *occupancy*, never the sanitization itself.  Runs
  with ``checked=True`` have the runtime sanitizer probe every
  sanitized page for real unreadability while deferral is active,
  which is the machine-checked form of that argument.

``policy_by_name`` is the registry the CLI and experiments use.
"""

from __future__ import annotations

from repro.ftl.request import RequestOp
from repro.sim.ops import LOCK_KINDS, SUSPENDABLE_KINDS, OpKind


def is_host_read(segment) -> bool:
    """Whether a segment is a flash read serving a host *read* request.

    A READ op captured for a write or trim request is background work
    (GC relocation, lock-manager bookkeeping) and gets no priority --
    the same host-first discipline real controllers apply.
    """
    return (
        segment.kind is OpKind.READ
        and segment.request is not None
        and segment.request.op is RequestOp.READ
    )


class SchedulingPolicy:
    """Base policy: FIFO, no suspension, no deferral."""

    name = "fifo"
    #: in-service erase/program can be suspended by an arriving read.
    preemptive = False
    #: pLock/bLock pulses are deferred out of the request critical path.
    defer_locks = False
    #: extra chip time when a suspended cell op resumes (re-ramp cost).
    resume_overhead_us = 0.0
    #: reserve both stages of two-stage ops in submission order (the
    #: open-loop model's discipline, incl. head-of-line blocking); the
    #: work-conserving policies dispatch a stage only when it is ready.
    in_order = False

    def priority(self, segment) -> int:
        """Queue priority: lower runs first; ties keep arrival order."""
        return 0

    def preempts(self, segment, current) -> bool:
        """Whether an arriving segment suspends the in-service one."""
        return False

    def describe(self) -> dict[str, object]:
        return {"name": self.name}


class FifoPolicy(SchedulingPolicy):
    """Strict arrival order on every resource.

    Reproduces the open-loop occupancy model exactly under saturation
    (in-order reservation semantics) -- the agreement cross-check's
    policy.
    """

    name = "fifo"
    in_order = True


class ReadPriorityPolicy(SchedulingPolicy):
    """Host reads overtake queued background work; the rest stays FIFO.

    Background work means GC relocation reads and programs, erases, and
    lock pulses -- everything a host read should not have to wait behind
    except the op already in service.
    """

    name = "read_priority"

    def priority(self, segment) -> int:
        return 0 if is_host_read(segment) else 1


class SuspendPolicy(ReadPriorityPolicy):
    """Read priority plus erase/program suspension.

    Models the erase-suspend/program-suspend commands of modern NAND:
    an arriving read pauses a suspendable in-service cell op, runs, and
    the op resumes with its remaining duration plus
    ``resume_overhead_us``.  Lock pulses are *not* suspendable -- a
    half-applied pLock would weaken the sanitization guarantee, exactly
    the kind of interaction the paper's lock manager avoids.
    """

    name = "suspend"
    preemptive = True
    suspendable = SUSPENDABLE_KINDS

    def __init__(self, resume_overhead_us: float = 20.0) -> None:
        if resume_overhead_us < 0.0:
            raise ValueError("resume_overhead_us must be non-negative")
        self.resume_overhead_us = resume_overhead_us

    def preempts(self, segment, current) -> bool:
        return (
            is_host_read(segment)
            and segment.stage == "cell"
            and current.stage == "cell"
            and current.kind in self.suspendable
        )

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "resume_overhead_us": self.resume_overhead_us}


class DeferLocksPolicy(SuspendPolicy):
    """The full sanitization-aware policy: deferral plus suspension.

    Lock pulses accumulate per chip (up to ``max_pending``) and drain
    when the chip goes idle or when the batch cap is hit.  Drained
    pulses run at *background* priority -- behind reads and behind
    programs/erases -- so the only way a pulse delays a read is by
    already being in service when the read arrives (bounded by one
    pulse duration, the same bound the paper's tpLock hiding argues).

    Suspension is inherited because it is *safe* under lock-based
    sanitization: a secSSD GC erase reclaims a block whose secured
    pages were already sanitized by pLock/bLock, so pausing it for a
    host read delays nothing security-relevant.  An erSSD cannot use
    this policy honestly -- its erases *are* the sanitization, so
    suspending or deferring them would reopen the deallocated-data
    window the paper measures (run erSSD under ``read_priority``).
    Lock pulses themselves are never suspendable.
    """

    name = "defer"
    defer_locks = True
    #: drained lock pulses run behind all host traffic.
    DRAIN_PRIORITY = 2

    def __init__(
        self, max_pending: int = 64, resume_overhead_us: float = 20.0
    ) -> None:
        super().__init__(resume_overhead_us=resume_overhead_us)
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending

    def defers(self, segment) -> bool:
        return segment.kind in LOCK_KINDS

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "max_pending": self.max_pending,
            "resume_overhead_us": self.resume_overhead_us,
        }


#: name -> zero-argument factory (CLI/experiment registry).
POLICIES: dict[str, type[SchedulingPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    ReadPriorityPolicy.name: ReadPriorityPolicy,
    SuspendPolicy.name: SuspendPolicy,
    DeferLocksPolicy.name: DeferLocksPolicy,
}


def policy_by_name(name: str, **kwargs) -> SchedulingPolicy:
    if name not in POLICIES:
        raise ValueError(
            f"unknown scheduling policy {name!r}; choose from {sorted(POLICIES)}"
        )
    return POLICIES[name](**kwargs)
