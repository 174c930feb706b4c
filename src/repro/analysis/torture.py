"""Crash/fault torture harness and machine-readable robustness scorecard.

The acceptance test for the :mod:`repro.faults` subsystem: every FTL
variant must *survive* every injectable fault kind -- complete the
workload, keep the runtime sanitizer's invariants, and leave no readable
stale secured page at the attacker boundary -- and must recover from a
power cut at **any** operation boundary.

Three sweeps, all fully deterministic (one seed drives the workload and
every fault decision; re-running with the same arguments produces a
byte-identical scorecard):

* **rate sweep** -- each fault kind at each configured per-op
  probability, plus *forced* lock failures (pLock and/or bLock at
  rate 1.0) for the Evanesco variants, which must push the fallback
  chain all the way down without losing the sanitization guarantee;
* **power-loss sweep** -- one run per operation boundary in a window,
  each cut mid-flight, recovered with
  :class:`~repro.ftl.recovery.PowerLossRecovery`, invariant-checked,
  leak-checked, and then driven with fresh post-recovery traffic;
* **leak check** -- :func:`~repro.checkers.residue.stale_secured_leaks`
  plays the Section 5.1 forensic attacker against the raw chip dumps:
  any secured page whose version is no longer live and which reads back
  ``readable`` under the residue rule is an exposure.

No exposure is excused after a power cut.  A page whose invalidating
request was *in flight* when power died either becomes live again (the
request never reached flash) or is a secured loser that recovery
sanitizes before it returns.  Each power-loss case reports how many such
pages there were under its historical scorecard name ``exempt``.
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.parallel import GridResultCache, GridTask, run_grid_detailed
from repro.analysis.progress import ProgressReporter
from repro.checkers.residue import stale_secured_leaks
from repro.checkers.sanitizer import InvariantViolation
from repro.checkpoint import run_chunked_simulation
from repro.checkpoint.store import StoreCrashInjected
from repro.faults import FaultKind, FaultPlan
from repro.flash.errors import FlashError, PowerLossInjected
from repro.ftl.recovery import PowerLossRecovery
from repro.sim.runner import capture_block_trace
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.ssd.request import IoRequest, read, trim, write
from repro.telemetry import Telemetry

#: variant order used across torture outputs.
TORTURE_VARIANTS = (
    "baseline",
    "erSSD",
    "scrSSD",
    "secSSD_nobLock",
    "secSSD",
    "cryptSSD",
)

#: fault kinds exercised by the rate sweep on every variant.
COMMON_KINDS = (
    FaultKind.READ_UNCORRECTABLE,
    FaultKind.PROGRAM_FAIL,
    FaultKind.ERASE_FAIL,
)

#: variants that issue lock commands (and so can see lock faults).
LOCKING_VARIANTS = ("secSSD_nobLock", "secSSD")

#: per-op fault probabilities of the default rate sweep.
DEFAULT_RATES = (1e-3, 1e-2)

#: checkpoint-corruption modes exercised by the checkpoint sweep.
CHECKPOINT_MODES = ("powercut", "bitflip", "truncate")


# ---------------------------------------------------------------------------
# deterministic torture workload
# ---------------------------------------------------------------------------
def torture_requests(
    n_requests: int,
    logical_pages: int,
    seed: int,
    secure_fraction: float = 0.8,
) -> list[IoRequest]:
    """A seeded churn mix: mostly writes (hot-skewed), reads, trims.

    Writes span 1-4 pages so the stream fills blocks at a realistic
    clip; 70 % of requests target the hottest quarter of the address
    space so update invalidations (the sanitization triggers) dominate.
    """
    rng = random.Random(seed)
    hot = max(1, logical_pages // 4)
    out: list[IoRequest] = []
    for _ in range(n_requests):
        span = min(rng.randint(1, 4), logical_pages)
        base = hot if rng.random() < 0.7 else logical_pages
        lpa = rng.randrange(max(1, base - span + 1))
        roll = rng.random()
        if roll < 0.70:
            out.append(write(lpa, span, secure=rng.random() < secure_fraction))
        elif roll < 0.85:
            out.append(read(lpa, span))
        else:
            out.append(trim(lpa, span))
    return out


# ---------------------------------------------------------------------------
# scorecard structures
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TortureCase:
    """Outcome of one torture run (one variant under one fault plan)."""

    variant: str
    kind: str      # fault-kind value or "power_loss"
    detail: str    # e.g. "rate=0.01", "forced", "op=137"
    outcome: str   # "PASS" | "SKIP: ..." | "FAIL: ..."
    robustness: dict[str, int] = field(default_factory=dict)
    injected: dict[str, int] = field(default_factory=dict)
    exempt: int = 0  # pages whose invalidation was in flight at the cut

    @property
    def passed(self) -> bool:
        return not self.outcome.startswith("FAIL")

    def to_dict(self) -> dict[str, object]:
        return {
            "variant": self.variant,
            "kind": self.kind,
            "detail": self.detail,
            "outcome": self.outcome,
            "robustness": dict(self.robustness),
            "injected": dict(self.injected),
            "exempt": self.exempt,
        }

    @classmethod
    def from_dict(cls, data: dict) -> TortureCase:
        """Inverse of :meth:`to_dict` (shard-cache rehydration)."""
        return cls(
            variant=str(data["variant"]),
            kind=str(data["kind"]),
            detail=str(data["detail"]),
            outcome=str(data["outcome"]),
            robustness={str(k): int(v) for k, v in data["robustness"].items()},
            injected={str(k): int(v) for k, v in data["injected"].items()},
            exempt=int(data["exempt"]),
        )


@dataclass
class TortureScorecard:
    """Every case of one torture invocation, JSON-serializable."""

    seed: int
    cases: list[TortureCase] = field(default_factory=list)
    #: shards that failed once and passed their single bounded retry.
    retried_shards: int = 0
    #: shards rehydrated from a ``--resume`` shard cache instead of run.
    cached_shards: int = 0

    @property
    def failures(self) -> list[TortureCase]:
        return [case for case in self.cases if not case.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        """Deterministic JSON: same seed + schedule -> identical bytes."""
        return json.dumps(
            {
                "seed": self.seed,
                "passed": self.passed,
                "n_cases": len(self.cases),
                "n_failures": len(self.failures),
                "retried_shards": self.retried_shards,
                "cached_shards": self.cached_shards,
                "cases": [case.to_dict() for case in self.cases],
            },
            sort_keys=True,
            indent=2,
        )

    def format(self) -> str:
        """Human-readable per-case lines plus a verdict."""
        lines = []
        for case in self.cases:
            mark = "ok  " if case.passed else "FAIL"
            faults = sum(case.injected.values())
            lines.append(
                f"{mark} {case.variant:<14} {case.kind:<11} "
                f"{case.detail:<12} faults={faults:<4} {case.outcome}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        recovery = ""
        if self.retried_shards or self.cached_shards:
            recovery = (
                f", {self.retried_shards} retried, "
                f"{self.cached_shards} cached"
            )
        lines.append(
            f"torture: {verdict} "
            f"({len(self.cases)} cases, {len(self.failures)} failure(s), "
            f"seed {self.seed}{recovery})"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# case runners
# ---------------------------------------------------------------------------
def _case_result(
    ssd: SSD, variant: str, kind: str, detail: str, outcome: str, exempt: int = 0
) -> TortureCase:
    injector = ssd.ftl.fault_injector
    injected = (
        {k.value: n for k, n in injector.injected.items()}
        if injector is not None
        else {}
    )
    return TortureCase(
        variant=variant,
        kind=kind,
        detail=detail,
        outcome=outcome,
        robustness=ssd.stats.robustness(),
        injected=injected,
        exempt=exempt,
    )


def traced_rate_case(
    config: SSDConfig,
    variant: str,
    plan: FaultPlan,
    kind_label: str,
    detail: str,
    n_requests: int,
    seed: int,
    telemetry: Telemetry | None = None,
) -> tuple[TortureCase, SSD]:
    """One fault-rate run: replay, full-check, leak-check.

    Returns the case and the simulated device.  ``telemetry`` attaches
    a trace session (``repro torture --trace-out`` records one
    representative faulted run per variant, fault instants included);
    the device stays alive for post-run forensic probing (``repro
    torture --cert-out`` certifies the raw chips a faulted run left
    behind).
    """
    ssd = SSD(
        config,
        variant=variant,
        seed=seed,
        checked=True,
        faults=plan,
        telemetry=telemetry,
    )
    requests = torture_requests(n_requests, config.logical_pages, seed)
    try:
        for request in requests:
            ssd.submit(request)
        sanitizer = ssd.ftl._sanitizer
        if sanitizer is not None:
            sanitizer.full_check()
        leaks = stale_secured_leaks(ssd.ftl)
        outcome = (
            "PASS"
            if not leaks
            else (
                f"FAIL: {len(leaks)} readable stale secured page(s), "
                f"e.g. gppa {leaks[:4]}"
            )
        )
    except (InvariantViolation, FlashError, RuntimeError) as exc:
        outcome = f"FAIL: {type(exc).__name__}: {exc}"
    return _case_result(ssd, variant, kind_label, detail, outcome), ssd


def run_power_loss_case(
    config: SSDConfig,
    variant: str,
    op_index: int,
    n_requests: int,
    seed: int,
    post_requests: int = 24,
) -> TortureCase:
    """Cut power at one op boundary, recover, verify, keep serving."""
    plan = FaultPlan.power_loss_at(op_index, seed=seed)
    ssd = SSD(config, variant=variant, seed=seed, checked=True, faults=plan)
    requests = torture_requests(n_requests, config.logical_pages, seed)
    tripped = False
    try:
        for request in requests:
            ssd.submit(request)
    except PowerLossInjected:
        tripped = True
    except (InvariantViolation, FlashError, RuntimeError) as exc:
        return _case_result(
            ssd,
            variant,
            "power_loss",
            f"op={op_index}",
            f"FAIL: pre-cut {type(exc).__name__}: {exc}",
        )
    if not tripped:
        return _case_result(
            ssd,
            variant,
            "power_loss",
            f"op={op_index}",
            "SKIP: run ended before the scheduled boundary",
        )
    sanitizer = ssd.ftl._sanitizer
    # pages whose invalidating request was still in flight: recovery
    # either revives them or sanitizes them, so none is excused
    in_flight = (
        len(set(sanitizer._pending) | set(sanitizer._fresh))
        if sanitizer is not None
        else 0
    )
    recovery = PowerLossRecovery(ssd.ftl)
    recovery.simulate_power_loss()
    try:
        recovery.recover()
        if sanitizer is not None:
            sanitizer.full_check()
        leaks = stale_secured_leaks(ssd.ftl)
        if leaks:
            return _case_result(
                ssd,
                variant,
                "power_loss",
                f"op={op_index}",
                f"FAIL: {len(leaks)} exposure(s) after recovery, "
                f"e.g. gppa {leaks[:4]}",
                exempt=in_flight,
            )
        # the recovered device must still serve and still hold invariants
        for request in torture_requests(
            post_requests, config.logical_pages, seed + 9973
        ):
            ssd.submit(request)
        if sanitizer is not None:
            sanitizer.full_check()
        post_leaks = stale_secured_leaks(ssd.ftl)
        outcome = (
            "PASS"
            if not post_leaks
            else (
                f"FAIL: {len(post_leaks)} exposure(s) after post-recovery "
                f"traffic, e.g. gppa {post_leaks[:4]}"
            )
        )
    except (InvariantViolation, FlashError, RuntimeError) as exc:
        outcome = f"FAIL: recovery {type(exc).__name__}: {exc}"
    return _case_result(
        ssd, variant, "power_loss", f"op={op_index}", outcome, exempt=in_flight
    )


def run_checkpoint_case(
    config: SSDConfig,
    variant: str,
    mode: str,
    seed: int,
    workload: str = "MailServer",
    write_multiplier: float = 0.25,
) -> TortureCase:
    """Corrupt a resumable campaign's checkpoints; it must still finish.

    Three attack modes against :func:`repro.checkpoint.
    run_chunked_simulation`:

    * ``powercut`` -- power dies *mid-checkpoint-write* (after one
      section of the next generation hit disk, before the manifest and
      the atomic rename), leaving a torn ``gen-*.tmp`` directory;
    * ``bitflip`` -- one byte of the newest generation's FTL section is
      flipped on disk;
    * ``truncate`` -- the newest generation's manifest is cut in half.

    In every mode the final resume must quarantine the damaged
    generation, fall back to the previous good one, report the recovery
    on ``result.run.extra["checkpoint_recovery"]``, and end
    byte-identical to the same campaign run uninterrupted.
    """
    if mode not in CHECKPOINT_MODES:
        raise ValueError(f"unknown checkpoint mode {mode!r}")
    try:
        rendered = capture_block_trace(
            config, workload, seed=seed, write_multiplier=write_multiplier
        )
        every = max(1, len(rendered[0]) // 3)  # >= 3 checkpoint windows
        with tempfile.TemporaryDirectory() as tmp:
            # every campaign call below replays the one rendered trace
            common = dict(
                seed=seed,
                write_multiplier=write_multiplier,
                checked=True,
                rendered=rendered,
            )
            reference = run_chunked_simulation(
                config, workload, variant, Path(tmp) / "ref", every, **common
            )
            run_dir = Path(tmp) / "run"
            # the interrupted campaign: killed after its first checkpoint
            run_chunked_simulation(
                config, workload, variant, run_dir, every,
                stop_after=1, **common,
            )
            if mode == "powercut":
                # resume, then cut power mid-write of the next generation
                try:
                    run_chunked_simulation(
                        config, workload, variant, run_dir, every,
                        resume=True, _crash_after="section:ftl", **common,
                    )
                    return TortureCase(
                        variant=variant,
                        kind="checkpoint",
                        detail=mode,
                        outcome="FAIL: mid-write power cut never fired",
                    )
                except StoreCrashInjected:
                    pass
            else:
                # complete one more window, then damage its checkpoint
                run_chunked_simulation(
                    config, workload, variant, run_dir, every,
                    resume=True, stop_after=1, **common,
                )
                newest = max(
                    p for p in run_dir.iterdir()
                    if p.is_dir() and len(p.name) == len("gen-000000")
                )
                if mode == "bitflip":
                    target = newest / "ftl.json"
                    raw = bytearray(target.read_bytes())
                    raw[len(raw) // 2] ^= 0x40
                    target.write_bytes(bytes(raw))
                else:  # truncate
                    target = newest / "MANIFEST.json"
                    raw = target.read_bytes()
                    target.write_bytes(raw[: len(raw) // 2])
            final = run_chunked_simulation(
                config, workload, variant, run_dir, every,
                resume=True, **common,
            )
            recovery = final.run.extra.get("checkpoint_recovery", [])
            qdir = run_dir / "quarantine"
            quarantined = sorted(
                p.name for p in qdir.iterdir()
            ) if qdir.is_dir() else []
            if not recovery or not quarantined:
                outcome = (
                    "FAIL: damaged checkpoint was not quarantined "
                    f"(reports={len(recovery)}, on-disk={quarantined})"
                )
            elif final.to_json() != reference.to_json():
                outcome = "FAIL: resumed result diverges from reference"
            else:
                outcome = "PASS"
            return TortureCase(
                variant=variant,
                kind="checkpoint",
                detail=mode,
                outcome=outcome,
                injected={"checkpoint_corruption": len(recovery)},
            )
    except Exception as exc:  # never a traceback: a FAIL case instead
        return TortureCase(
            variant=variant,
            kind="checkpoint",
            detail=mode,
            outcome=f"FAIL: {type(exc).__name__}: {exc}",
        )


# ---------------------------------------------------------------------------
# the full torture sweep
# ---------------------------------------------------------------------------
def _run_torture_case(task: GridTask) -> TortureCase:
    """Grid worker: one torture case (picklable dispatch)."""
    case_kind, case_args = task.payload
    if case_kind == "rate":
        return traced_rate_case(*case_args)[0]
    if case_kind == "checkpoint":
        return run_checkpoint_case(*case_args)
    return run_power_loss_case(*case_args)


def run_torture(
    config: SSDConfig,
    variants: tuple[str, ...] = TORTURE_VARIANTS,
    seed: int = 1,
    n_requests: int = 700,
    rates: tuple[float, ...] = DEFAULT_RATES,
    window_start: int = 0,
    window: int = 200,
    jobs: int = 1,
    checkpoint_modes: tuple[str, ...] = CHECKPOINT_MODES,
    resume_dir: str | Path | None = None,
    progress: ProgressReporter | None = None,
) -> TortureScorecard:
    """Rate + forced-lock + power-loss + checkpoint-corruption sweeps.

    Every case is independent (own device, own seed-derived fault
    plan), so ``jobs > 1`` fans them over worker processes via
    :func:`repro.analysis.parallel.run_grid_detailed`.  Cases are
    enumerated in one canonical order and merged in that order, so the
    scorecard is byte-identical for any job count.

    ``resume_dir`` makes the sweep itself resumable: completed cases
    are persisted one file per shard (checksummed, atomically written)
    and a re-run with the same directory recomputes only the missing
    or corrupt shards.  The scorecard reports how many shards were
    served from the cache (``cached_shards``) and how many needed the
    single bounded retry (``retried_shards``).
    """
    card = TortureScorecard(seed=seed)
    tasks: list[GridTask] = []

    def add(variant: str, case_kind: str, case_args: tuple) -> None:
        tasks.append(
            GridTask(
                index=len(tasks),
                variant=variant,
                workload="torture",
                seed=seed,
                payload=(case_kind, case_args),
            )
        )

    for variant in variants:
        kinds = list(COMMON_KINDS)
        if variant in LOCKING_VARIANTS:
            kinds += [FaultKind.PLOCK_FAIL, FaultKind.BLOCK_LOCK_FAIL]
        for kind in kinds:
            for rate in rates:
                add(
                    variant,
                    "rate",
                    (
                        config,
                        variant,
                        FaultPlan.single(kind, rate, seed=seed),
                        kind.value,
                        f"rate={rate:g}",
                        n_requests,
                        seed,
                    ),
                )
        if variant in LOCKING_VARIANTS:
            # forced failures: the verify-retry loop must exhaust and the
            # fallback chain must still deliver the guarantee
            forced = [
                ({FaultKind.PLOCK_FAIL: 1.0}, "plock"),
                ({FaultKind.BLOCK_LOCK_FAIL: 1.0}, "block_lock"),
                (
                    {FaultKind.PLOCK_FAIL: 1.0, FaultKind.BLOCK_LOCK_FAIL: 1.0},
                    "plock+block_lock",
                ),
            ]
            for rate_map, label in forced:
                add(
                    variant,
                    "rate",
                    (
                        config,
                        variant,
                        FaultPlan.from_rates(rate_map, seed=seed),
                        label,
                        "forced",
                        n_requests,
                        seed,
                    ),
                )
        for op_index in range(window_start, window_start + window):
            add(
                variant,
                "power_loss",
                (config, variant, op_index, n_requests, seed),
            )
        for mode in checkpoint_modes:
            add(variant, "checkpoint", (config, variant, mode, seed))
    cache = None
    if resume_dir is not None:
        cache = GridResultCache(
            resume_dir,
            to_state=lambda case: case.to_dict(),
            from_state=TortureCase.from_dict,
        )
    grid = run_grid_detailed(
        _run_torture_case, tasks, jobs=jobs, cache=cache, progress=progress
    )
    card.cases.extend(grid.results)
    card.retried_shards = grid.retried_shards
    card.cached_shards = grid.cached_shards
    return card
