"""Per-page lifecycle ledger reconstructed from a telemetry trace.

The observer bridge publishes four page-relevant instants (DESIGN 3k):

* ``ftl.page/program``   -- ``{gppa, lpa, secure}`` opens a generation;
* ``ftl.page/invalidate`` -- ``{gppa, lpa, reason}`` marks it stale
  (for secured data this starts the **exposure window**);
* ``ftl.sanitize/sanitize`` -- ``{gppa, method}`` destroys it
  (``plock`` / ``block_lock`` / ``scrub`` / ``erase`` / ``key_delete``),
  closing the window;
* ``ftl.flash/erase`` -- ``{block}`` closes *every* still-open
  generation in the block's page range.  This is load-bearing for the
  baseline FTL, which never reports per-page sanitize at erase: the
  ledger expands the block event over ``pages_per_block`` pages, which
  is why trace headers carry the geometry.

Exposure windows add the *physical pulse duration* of the closing
method on top of the timestamp delta: instants are stamped when the FTL
issues the operation, but the data stays readable until the pulse
completes, so a pLock closes a window ~100 us after issue while a block
erase takes ~3.5 ms (the trace header carries the per-method latencies
so offline audits reproduce the run's timing model).  This is exactly
the asymmetry the paper measures: erase-based sanitization holds
deleted data readable for the whole relocate+erase, Evanesco's locks
for one ISPP pulse.

The ledger is replay, not trust: lifecycle violations (program over an
open page, sanitize of a never-programmed page on a lossless trace) are
recorded, and the verifier turns them into failures.  The ledger digest
-- sha256 over the canonical encoding of every generation -- is what the
certificate chains over, so editing one event perturbs the digest.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.checkpoint.codec import canonical_dumps, section_checksum
from repro.telemetry.events import EventColumns, TraceBus
from repro.telemetry.export import LIFECYCLE_ARGS
from repro.telemetry.histogram import percentile


@dataclass
class PageGeneration:
    """One program..sanitize lifetime of one physical page."""

    gppa: int
    lpa: int
    secure: bool
    program_ts: float
    invalidate_ts: float | None = None
    invalidate_reason: str | None = None
    sanitize_ts: float | None = None
    sanitize_method: str | None = None

    @property
    def closed(self) -> bool:
        return self.sanitize_method is not None

    @property
    def exposure_us(self) -> float | None:
        """Raw invalidate-to-sanitize timestamp delta (no pulse latency).

        ``None`` while either end is open.  The verifier checks this raw
        delta for negativity (simulated time cannot run backwards); the
        reported window adds the closing method's pulse duration -- see
        :meth:`PageLedger.window_of`.
        """
        if self.invalidate_ts is None or self.sanitize_ts is None:
            return None
        return self.sanitize_ts - self.invalidate_ts

    def record(self) -> list[object]:
        """Canonical JSON-safe row for the ledger digest."""
        return [
            self.gppa,
            self.lpa,
            self.secure,
            self.program_ts,
            self.invalidate_ts,
            self.invalidate_reason,
            self.sanitize_ts,
            self.sanitize_method,
        ]


@dataclass
class PageLedger:
    """Every reconstructed generation plus replay accounting."""

    pages_per_block: int
    #: per-method physical pulse latency (us) added onto the timestamp
    #: delta when reporting exposure windows; missing methods read 0.
    sanitize_latency_us: dict[str, float] = field(default_factory=dict)
    generations: list[PageGeneration] = field(default_factory=list)
    #: gppa -> index into ``generations`` of the still-open generation.
    open_by_gppa: dict[int, int] = field(default_factory=dict)
    #: lifecycle anomalies seen during replay, by kind.  On a lossless
    #: trace any non-zero count is evidence of tampering; on a lossy one
    #: (drops/strides disclosed) they are tolerated and disclosed.
    anomalies: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    sanitized_by_method: dict[str, int] = field(default_factory=dict)
    invalidated_by_reason: dict[str, int] = field(default_factory=dict)

    # -- replay ---------------------------------------------------------
    def _anomaly(self, kind: str) -> None:
        self.anomalies[kind] = self.anomalies.get(kind, 0) + 1

    def _count(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def _close(self, index: int, ts: float, method: str) -> None:
        gen = self.generations[index]
        gen.sanitize_ts = ts
        gen.sanitize_method = method
        self.sanitized_by_method[method] = (
            self.sanitized_by_method.get(method, 0) + 1
        )
        del self.open_by_gppa[gen.gppa]

    def replay(self, columns: EventColumns) -> None:
        """Replay a bus's columns (see :meth:`TraceBus.columns`).

        Each kind is resolved once to its handler and the positions of
        the args it takes; every other kind only advances the values
        offset.
        """
        steps = [self._step(*spec) for spec in columns.kinds]
        arity = [len(spec[4]) for spec in columns.kinds]
        values = columns.values
        pos = 0
        for index, ts_us in zip(columns.kind, columns.ts_us):
            step = steps[index]
            if step is not None:
                handler, at = step
                handler(ts_us, *[values[pos + i] for i in at])
            pos += arity[index]

    def _step(
        self, name: str, cat: str, ph: str, tid: str, keys: tuple[str, ...]
    ) -> tuple[Callable[..., None], tuple[int, ...]] | None:
        """One kind's handler and arg positions; ``None`` unless it is one
        of the four bridge instants."""
        required = LIFECYCLE_ARGS.get((cat, name))
        if required is None:
            return None
        missing = [key for key in required if key not in keys]
        if missing:
            raise ValueError(
                f"{cat}/{name} events lack the args {missing}; the ledger "
                "cannot replay them"
            )
        optional = {"invalidate": "reason", "sanitize": "method"}.get(name)
        wanted = (*required, *([optional] if optional in keys else []))
        handler = {
            "program": self._program,
            "invalidate": self._invalidate,
            "sanitize": self._sanitize,
            "erase": self._erase,
        }[name]
        return handler, tuple(keys.index(key) for key in wanted)

    def _program(self, ts_us: float, gppa: object, lpa: object, secure: object) -> None:
        self._count("programs")
        page = int(gppa)  # type: ignore[call-overload]
        if page in self.open_by_gppa:
            # a page cannot be programmed twice without an erase
            self._anomaly("program-over-open-page")
            del self.open_by_gppa[page]
        self.open_by_gppa[page] = len(self.generations)
        self.generations.append(
            PageGeneration(
                gppa=page,
                lpa=int(lpa),  # type: ignore[call-overload]
                secure=bool(secure),
                program_ts=ts_us,
            )
        )

    def _invalidate(self, ts_us: float, gppa: object, reason: object = None) -> None:
        self._count("invalidations")
        why = str(reason)
        self.invalidated_by_reason[why] = self.invalidated_by_reason.get(why, 0) + 1
        index = self.open_by_gppa.get(int(gppa))  # type: ignore[call-overload]
        if index is None:
            self._anomaly("invalidate-without-program")
            return
        gen = self.generations[index]
        if gen.invalidate_ts is not None:
            self._anomaly("double-invalidate")
            return
        gen.invalidate_ts = ts_us
        gen.invalidate_reason = why

    def _sanitize(self, ts_us: float, gppa: object, method: object = None) -> None:
        self._count("sanitizes")
        index = self.open_by_gppa.get(int(gppa))  # type: ignore[call-overload]
        if index is None:
            self._anomaly("sanitize-without-program")
            return
        self._close(index, ts_us, str(method))

    def _erase(self, ts_us: float, block: object) -> None:
        self._count("erases")
        lo = int(block) * self.pages_per_block  # type: ignore[call-overload]
        for gppa in range(lo, lo + self.pages_per_block):
            index = self.open_by_gppa.get(gppa)
            if index is not None:
                self._close(index, ts_us, "erase")

    # -- derived views --------------------------------------------------
    def open_generations(self) -> list[PageGeneration]:
        return [self.generations[i] for i in sorted(self.open_by_gppa.values())]

    def residual_secured(self) -> list[PageGeneration]:
        """Secured generations invalidated but never sanitized.

        This is exactly the stale-secured-exposure set the paper's
        attack reads off an insecure SSD; a secure variant's ledger
        should end with this empty (modulo in-flight locks at cutoff).
        """
        return [
            gen
            for gen in self.open_generations()
            if gen.secure and gen.invalidate_ts is not None
        ]

    def window_of(self, gen: PageGeneration) -> float | None:
        """Delete-to-unreadable window including the closing pulse."""
        raw = gen.exposure_us
        if raw is None:
            return None
        return raw + self.sanitize_latency_us.get(
            str(gen.sanitize_method), 0.0
        )

    def exposure_windows(self) -> list[float]:
        """Sorted delete-to-unreadable windows of secured generations."""
        return sorted(
            window
            for gen in self.generations
            if gen.secure and (window := self.window_of(gen)) is not None
        )

    def exposure_summary(self) -> dict[str, float]:
        windows = self.exposure_windows()
        return {
            "count": len(windows),
            "p50_us": percentile(windows, 50.0),
            "p99_us": percentile(windows, 99.0),
            "max_us": windows[-1] if windows else 0.0,
        }

    def digest(self) -> str:
        """sha256 over the canonical encoding of every generation."""
        rows = sorted(
            (gen.record() for gen in self.generations),
            key=lambda row: (row[0], row[3]),
        )
        return section_checksum(canonical_dumps(rows))

    def summary(self) -> dict[str, object]:
        """JSON-ready ledger section for the certificate."""
        residual = self.residual_secured()
        return {
            "digest": self.digest(),
            "generations": len(self.generations),
            "events": dict(sorted(self.counts.items())),
            "sanitized_by_method": dict(sorted(self.sanitized_by_method.items())),
            "invalidated_by_reason": dict(
                sorted(self.invalidated_by_reason.items())
            ),
            "open_at_end": len(self.open_by_gppa),
            "residual_secured": len(residual),
            "anomalies": dict(sorted(self.anomalies.items())),
        }


def build_ledger(
    bus: TraceBus,
    pages_per_block: int,
    sanitize_latency_us: dict[str, float] | None = None,
) -> PageLedger:
    """Replay a bus's retained events (publication order) into a ledger.

    Live, checkpoint-restored and archived evidence all arrive as a
    :class:`~repro.telemetry.events.TraceBus` (an archive through
    :func:`~repro.telemetry.export.read_jsonl`), so they share this one
    replay path.
    """
    if pages_per_block < 1:
        raise ValueError("pages_per_block must be >= 1")
    ledger = PageLedger(
        pages_per_block=pages_per_block,
        sanitize_latency_us=dict(sanitize_latency_us or {}),
    )
    ledger.replay(bus.columns())
    return ledger
