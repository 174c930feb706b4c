"""Resumable simulation campaigns built on the checkpoint store.

:func:`run_chunked_simulation` is :func:`repro.sim.runner.
simulate_workload` with the request stream cut into *checkpoint
windows*: after every ``checkpoint_every`` dispatched requests the
engine drains to a quiescent boundary, the full device state is written
as one new generation, and the run continues.  Kill the process at any
point -- between windows, mid-checkpoint-write, mid-window -- and a
``resume=True`` invocation with the same parameters picks the newest
generation that validates *and* passes the restore audit, falls back
generation by generation past anything corrupt, and replays the
remaining windows.

The determinism contract (DESIGN.md section 3i): an interrupted and
resumed campaign produces byte-identical results (stats, latency
percentiles, telemetry) to the same campaign run uninterrupted **at the
same cadence**, because a checkpoint boundary is defined purely by the
request index and every RNG stream, clock, and accumulator round-trips
through the snapshot exactly.  With ``checkpoint_every >= len(stream)``
the single window *is* the historical ``engine.run()``.

The campaign directory carries a ``campaign.json`` fingerprint of every
behaviour-determining parameter; resuming with different parameters
raises :class:`CampaignMismatchError` instead of silently diverging.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.checkers.sanitizer import default_checked, default_interval
from repro.checkpoint.codec import CodecError, canonical_dumps, encode
from repro.checkpoint.device import (
    EVENTS,
    CheckpointAuditError,
    restore_device,
    snapshot_device,
)
from repro.checkpoint.store import (
    FORMAT_VERSION,
    CheckpointStore,
    CorruptionReport,
)
from repro.faults import FaultPlan
from repro.ftl.request import IoRequest
from repro.sim.arrivals import ArrivalProcess, ClosedLoopArrivals
from repro.sim.engine import QueueingEngine
from repro.sim.policies import SchedulingPolicy, policy_by_name
from repro.sim.runner import (
    SimResult,
    assemble_result,
    build_engine,
    capture_block_trace,
)
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.telemetry import Telemetry

__all__ = [
    "STOP_CONDITIONS",
    "CampaignMismatchError",
    "run_chunked_simulation",
]


class CampaignMismatchError(Exception):
    """Resume parameters disagree with the stored campaign manifest."""


def _first_wearout(ssd: SSD) -> bool:
    return ssd.ftl.stats.worn_out_blocks > 0


#: named early-stop predicates for :func:`run_chunked_simulation`,
#: evaluated only at checkpoint boundaries so serial, sharded, and
#: killed+resumed campaigns all stop at the identical request index.
#: Names (not callables) go into the campaign fingerprint.  The aging
#: campaigns use ``first-wearout`` to halt at first block death --
#: before endurance-limited variants spiral into pool exhaustion.
STOP_CONDITIONS: dict[str, Any] = {
    "first-wearout": _first_wearout,
}


def _fingerprint(
    config: SSDConfig,
    workload: str,
    variant: str,
    seed: int,
    secure_fraction: float,
    write_multiplier: float,
    policy: SchedulingPolicy,
    arrivals: ArrivalProcess,
    checked: bool,
    check_interval: int,
    faults: FaultPlan | None,
    telemetry: Telemetry | None,
    checkpoint_every: int,
    stop_when: str | None,
) -> dict[str, Any]:
    """Every parameter that determines the request/result byte stream.

    The telemetry session counts by its shape: the ring capacity and
    sample strides decide which events are retained, and so the
    segment chain a generation lists.
    """
    return {
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "workload": workload,
        "variant": variant,
        "seed": seed,
        "secure_fraction": secure_fraction,
        "write_multiplier": write_multiplier,
        "policy": policy.describe(),
        "arrivals": arrivals.describe(),
        "checked": checked,
        "check_interval": check_interval,
        "faults": None if faults is None else faults.to_state(),
        "telemetry": (
            None
            if telemetry is None
            else {
                "capacity": telemetry.bus.capacity,
                "sample": dict(sorted(telemetry.bus.sample.items())),
            }
        ),
        "checkpoint_every": checkpoint_every,
        "stop_when": stop_when,
    }


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Suspend cyclic GC, then restore whatever state the caller had.

    Snapshot, encode and decode allocate about a million short-lived,
    acyclic containers on top of a heap of hundreds of thousands of
    tracked objects; left on, the collector re-scans that heap several
    times per checkpoint.  Reference counting still frees everything
    the burst drops.  A caller that had GC off keeps it off, exceptions
    (such as an injected store crash) included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _check_manifest(stored: dict[str, Any], current: dict[str, Any]) -> None:
    if canonical_dumps(encode(stored)) == canonical_dumps(encode(current)):
        return
    diverging = sorted(
        key
        for key in set(stored) | set(current)
        if canonical_dumps(encode(stored.get(key)))
        != canonical_dumps(encode(current.get(key)))
    )
    raise CampaignMismatchError(
        "campaign parameters do not match the checkpoint directory's "
        f"manifest; diverging field(s): {', '.join(diverging) or 'unknown'}"
    )


def run_chunked_simulation(
    config: SSDConfig,
    workload: str,
    variant: str,
    directory: str | Path,
    checkpoint_every: int,
    seed: int = 1,
    secure_fraction: float = 1.0,
    write_multiplier: float = 1.0,
    policy: SchedulingPolicy | str = "fifo",
    arrivals: ArrivalProcess | None = None,
    checked: bool | None = None,
    check_interval: int | None = None,
    faults: FaultPlan | None = None,
    telemetry: Telemetry | None = None,
    resume: bool = False,
    stop_after: int | None = None,
    stop_when: str | None = None,
    rendered: tuple[list[IoRequest], int] | None = None,
    _crash_after: str | None = None,
) -> SimResult | None:
    """Run (or resume) one simulation in checkpointed windows.

    ``stop_after=k`` exits (returning ``None``) after writing ``k``
    checkpoint generations -- the deterministic stand-in for "the
    process was killed here" that tests and the torture harness use.
    ``stop_when`` names a :data:`STOP_CONDITIONS` predicate evaluated
    at every checkpoint boundary (and right after a resume restore);
    when it fires the campaign completes early with the state at that
    boundary -- the same boundary on every run shape, so the byte-
    identity contract extends to early-stopped campaigns.  Every other
    parameter matches :func:`~repro.sim.runner.simulate_workload`; the
    completed run returns the identical :class:`~repro.sim.runner.
    SimResult` (with ``result.device`` attached for post-run forensics
    such as per-block wear surveys).

    Recovery reporting: corrupt or audit-failed generations encountered
    while resuming are quarantined and surfaced on the result as
    ``result.run.extra["checkpoint_recovery"]`` (a list of
    :class:`~repro.checkpoint.store.CorruptionReport` dicts).

    ``rendered`` must equal ``capture_block_trace(config, workload,
    seed, secure_fraction, write_multiplier)``: the manifest fingerprints
    those parameters, not the requests.  A caller that runs several
    campaigns on one trace passes it to each instead of having every
    campaign render it again.  ``None`` renders it here, once, however
    many checkpoint generations a resume has to fall back past.  A
    resume whose trace length differs from the one the generations
    were written for raises :class:`ValueError` and quarantines nothing.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if stop_after is not None and stop_after < 1:
        raise ValueError("stop_after must be >= 1")
    if stop_when is not None and stop_when not in STOP_CONDITIONS:
        raise ValueError(
            f"unknown stop_when {stop_when!r}; "
            f"choose from {sorted(STOP_CONDITIONS)}"
        )
    if isinstance(policy, str):
        policy = policy_by_name(policy)
    if arrivals is None:
        arrivals = ClosedLoopArrivals()
    resolved_checked = checked if checked is not None else default_checked()
    resolved_interval = (
        check_interval if check_interval is not None else default_interval()
    )
    store = CheckpointStore(directory)
    if _crash_after is not None:
        # test/torture hook: simulate a power cut at a named point of
        # the next generation write (see CheckpointStore._maybe_crash).
        store._crash_after = _crash_after
    fingerprint = _fingerprint(
        config,
        workload,
        variant,
        seed,
        secure_fraction,
        write_multiplier,
        policy,
        arrivals,
        resolved_checked,
        resolved_interval,
        faults,
        telemetry,
        checkpoint_every,
        stop_when,
    )
    stored = store.read_campaign_manifest()
    if resume and stored is None:
        raise CampaignMismatchError(
            f"cannot resume: no campaign manifest in {store.root}"
        )
    if stored is not None:
        _check_manifest(stored, fingerprint)
    else:
        store.write_campaign_manifest(fingerprint)

    if rendered is None:
        rendered = capture_block_trace(
            config,
            workload,
            seed=seed,
            secure_fraction=secure_fraction,
            write_multiplier=write_multiplier,
        )
    requests, steady_start = rendered

    def build() -> tuple[SSD, QueueingEngine]:
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
        return engine.ssd, engine

    recovery: list[CorruptionReport] = []
    if resume:
        # fall back generation by generation: a checkpoint that decodes
        # but fails restore or the invariant audit is quarantined just
        # like a checksum failure, and the next-older one is tried.
        while True:
            with _gc_paused():
                load = store.latest_good()  # raises CheckpointError when dry
            recovery.extend(load.corrupt)
            if load.meta.get("requests", len(requests)) != len(requests):
                # the caller's trace, not the generation, is wrong
                raise ValueError(
                    f"campaign was written for a {load.meta['requests']}-"
                    f"request trace; this one has {len(requests)}"
                )
            ssd, engine = build()
            try:
                start = load.meta.get("stop", 0)
                if type(start) is not int or not 0 <= start <= len(requests):
                    raise ValueError(f"meta stop {start!r} is not a request index")
                with _gc_paused():
                    restore_device(ssd, engine, load.sections, audit=True)
            except CheckpointAuditError as exc:
                recovery.append(
                    store.quarantine_generation(
                        load.generation, "audit-failed", str(exc)
                    )
                )
                continue
            except (CodecError, ValueError, LookupError, TypeError) as exc:
                recovery.append(
                    store.quarantine_generation(
                        load.generation, "restore-failed", str(exc)
                    )
                )
                continue
            break
    else:
        ssd, engine = build()
        start = 0

    n = len(requests)
    written = 0
    stop = start
    stop_predicate = None if stop_when is None else STOP_CONDITIONS[stop_when]
    while stop < n:
        if stop_predicate is not None and stop_predicate(ssd):
            break  # fired at a prior boundary (possibly pre-resume)
        stop = min(stop + checkpoint_every, n)
        engine.run_window(stop)
        with _gc_paused():
            store.write_generation(
                snapshot_device(ssd, engine, since=store.cursor(EVENTS)),
                meta={"stop": stop, "requests": n},
            )
        written += 1
        if stop_after is not None and written >= stop_after:
            return None

    result = assemble_result(workload, variant, engine, engine._report())
    if recovery:
        result.run.extra["checkpoint_recovery"] = [
            r.to_dict() for r in recovery
        ]
    return result
