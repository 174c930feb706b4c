"""Outside-in per-layer tracing for the perf benchmark.

:class:`LayerTracer` wraps the public methods of the simulator's layer
objects in ``perf_counter`` spans without any change to ``src/``.  Each
wrapper replaces the name where its caller looks it up: the class
attribute for a method -- on the class *and* on every subclass that
overrides it, because ``EvanescoChip`` overrides ``read_page`` and a
class-level wrap of ``FlashChip`` alone would miss every secSSD read --
or the module global for a function a caller imported by name
(``campaign.snapshot_device``).  Leaving the ``with`` block restores
every original.

A span's self time is its duration minus the time of its child spans.  A
span whose parent is the same seam -- an override calling ``super()`` --
is not opened, so the layer counts that call once.  Inclusive times are
kept too, for the phase metrics (``checkpoint.write_s``, ``audit.*_s``).
Self times include the wrappers' own cost, a fraction of a microsecond
per call shared between the span and its parent; ``trace.overhead_frac``
reports the total, so compare a layer's self time across commits rather
than against the untraced run time.

The tracer also keeps Chrome trace-event spans for the first
:data:`CHROME_REQUESTS` dispatched requests (phase spans such as
checkpoint writes are always kept); keeping every span of a long run
would cost hundreds of MB.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections.abc import Callable, Iterator
from pathlib import Path
from time import perf_counter

from repro.telemetry.export import validate_chrome_trace

#: requests whose per-request spans go into the Chrome trace.
CHROME_REQUESTS = 2000

_FLASH = ("read_page", "program_page", "erase_block", "scrub_wordline")
_CORE = ("plock", "block_lock", "block_locked", "page_locked")
_OPS = ("begin_capture", "end_capture", "read", "program", "erase",
        "plock", "block_lock", "scrub")
_BRIDGE = ("on_program", "on_invalidate", "on_sanitize", "on_erase",
           "on_logical_tick")

#: (layer, span, where callers look the callable up, per-request?).  A
#: target is ``module:Class.method`` or ``module:function``; the span key
#: is ``<layer>.<span>``.
SEAMS: tuple[tuple[str, str, tuple[str, ...], bool], ...] = (
    ("host", "capture", (
        "repro.sim.runner:capture_block_trace",
        "repro.checkpoint.campaign:capture_block_trace",
    ), False),
    ("ssd", "build", ("repro.ssd.device:SSD.__init__",), False),
    ("ssd", "submit", ("repro.ssd.device:SSD.submit",), True),
    ("sim.engine", "run", ("repro.sim.engine:QueueingEngine.run",), False),
    ("sim.engine", "run_window",
     ("repro.sim.engine:QueueingEngine.run_window",), False),
    ("ftl", "submit", ("repro.ftl.base:PageMappedFtl.submit",), True),
    *(("flash", m, (f"repro.flash.chip:FlashChip.{m}",), True) for m in _FLASH),
    *(("core", m, (f"repro.core.evanesco_chip:EvanescoChip.{m}",), True)
      for m in _CORE),
    *(("sim.ops", m, (f"repro.sim.ops:RecordingTiming.{m}",), True)
      for m in _OPS),
    *(("telemetry", m, (f"repro.telemetry.bridge:TelemetryObserver.{m}",), True)
      for m in _BRIDGE),
    ("telemetry", "instant", ("repro.telemetry.events:TraceBus.instant",), True),
    ("telemetry", "complete", ("repro.telemetry.events:TraceBus.complete",), True),
    *(("telemetry", m, (f"repro.telemetry.metrics:MetricsRegistry.{m}",), True)
      for m in ("counter", "gauge", "histogram")),
    ("telemetry", "observe",
     ("repro.telemetry.histogram:FixedBucketHistogram.observe",), True),
    ("checkpoint", "campaign",
     ("repro.checkpoint.campaign:run_chunked_simulation",), False),
    ("checkpoint", "snapshot", ("repro.checkpoint.campaign:snapshot_device",), False),
    ("checkpoint", "write",
     ("repro.checkpoint.store:CheckpointStore.write_generation",), False),
    ("audit", "run", ("repro.audit.run:audit_sim_result",), False),
    ("audit", "ledger", ("repro.audit.run:build_ledger",), False),
    ("audit", "certificate", ("repro.audit.run:build_certificate",), False),
    ("audit", "verify", ("repro.audit.run:verify_all",), False),
)

_SUBMIT = "ssd.submit"
#: spans the setup phase opens at top level (the rest is the run phase).
_SETUP = ("host.capture", "ssd.build")


def _with_subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _with_subclasses(sub)


class LayerTracer:
    """Per-seam call counts and self/inclusive host seconds."""

    def __init__(self) -> None:
        self.layer_of = {f"{layer}.{span}": layer for layer, span, _, _ in SEAMS}
        #: per seam: [calls, self seconds, inclusive seconds, inclusive
        #: seconds of the calls made with no span open].
        self._acc = {key: [0, 0.0, 0.0, 0.0] for key in self.layer_of}
        #: time charged while no span is open.
        self._outside = [0, 0.0, 0.0, 0.0]
        #: [accumulator of the running span, time of the last transition].
        self._state: list = [self._outside, 0.0]
        #: Chrome spans: (key, start, duration, index of the request
        #: dispatched last, or -1 for a phase span).
        self.spans: list[tuple[str, float, float, int]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._t0 = perf_counter()

    # -- installation ----------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for layer, span, targets, per_request in SEAMS:
            key = f"{layer}.{span}"
            for target in targets:
                module_name, _, attr = target.partition(":")
                module = importlib.import_module(module_name)
                if "." in attr:
                    class_name, method = attr.split(".")
                    for cls in _with_subclasses(getattr(module, class_name)):
                        if method in cls.__dict__:
                            self._patch(cls, method, key, per_request)
                else:
                    self._patch(module, attr, key, per_request)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner: object, attr: str, key: str, per_request: bool) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._span(key, original, per_request))

    def _span(self, key: str, fn: Callable, per_request: bool) -> Callable:
        # Time is charged at transitions: a span's entry and exit each
        # charge the seconds since the previous transition to the span
        # that was running, so self time excludes child spans without any
        # per-call bookkeeping beyond two clock reads.
        acc = self._acc[key]
        outside = self._outside
        state = self._state
        submitted = self._acc[_SUBMIT]
        spans = self.spans
        clock = perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = state[0]
            if parent is acc:
                return fn(*args, **kwargs)  # super() chain: one call
            start = clock()
            parent[1] += start - state[1]
            acc[0] += 1
            state[0] = acc
            state[1] = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                acc[1] += end - state[1]
                acc[2] += end - start
                if parent is outside:
                    acc[3] += end - start
                state[0] = parent
                state[1] = end
                if not per_request:
                    spans.append((key, start, end - start, -1))
                elif submitted[0] <= CHROME_REQUESTS:
                    spans.append((key, start, end - start, submitted[0] - 1))

        return span

    def _column(self, index: int) -> dict[str, float]:
        return {key: acc[index] for key, acc in self._acc.items()}

    @property
    def calls(self) -> dict[str, int]:
        return self._column(0)

    @property
    def self_s(self) -> dict[str, float]:
        return self._column(1)

    @property
    def total_s(self) -> dict[str, float]:
        return self._column(2)

    # -- results ---------------------------------------------------------
    def _layer(self, table: dict, layer: str) -> float:
        return sum(v for k, v in table.items() if self.layer_of[k] == layer)

    def layer_metrics(self, record: dict) -> dict[str, float]:
        """The per-layer metrics of one traced repeat, by metric name."""
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        counters = record["counters"]
        engine_s = self._layer(self_s, "sim.engine")
        metrics: dict[str, float] = {
            "host.capture_s": total_s["host.capture"],
            "host.requests": counters["requests"],
            "ssd.build_s": total_s["ssd.build"],
            "ssd.submit.calls": calls["ssd.submit"],
            "ssd.submit.self_s": self_s["ssd.submit"],
            "sim.engine.self_s": engine_s,
            "sim.engine.events": counters["events"],
            "sim.engine.events_per_s": counters["events"] / engine_s,
            "sim.engine.queued_segments_peak": counters["queued_segments_peak"],
            "ftl.submit.calls": calls["ftl.submit"],
            "ftl.self_s": self._layer(self_s, "ftl"),
            "ftl.gc_copies": counters["gc_copies"],
        }
        for layer, names in (("flash", _FLASH), ("core", _CORE)):
            for name in names:
                metrics[f"{layer}.{name}.calls"] = calls[f"{layer}.{name}"]
                metrics[f"{layer}.{name}.self_s"] = self_s[f"{layer}.{name}"]
        metrics.update(
            {
                "sim.ops.calls": self._layer(calls, "sim.ops"),
                "sim.ops.self_s": self._layer(self_s, "sim.ops"),
                "telemetry.events": (
                    calls["telemetry.instant"] + calls["telemetry.complete"]
                ),
                "telemetry.self_s": self._layer(self_s, "telemetry"),
                "checkpoint.snapshot_s": total_s["checkpoint.snapshot"],
                "checkpoint.write_s": total_s["checkpoint.write"],
                "checkpoint.generations": calls["checkpoint.write"],
                "checkpoint.bytes": counters.get("checkpoint_bytes", 0),
                "audit.ledger_s": total_s["audit.ledger"],
                "audit.certificate_s": total_s["audit.certificate"],
                "audit.verify_s": total_s["audit.verify"],
                "audit.events_replayed": counters.get("events_replayed", 0),
            }
        )
        return metrics

    def oracle_errors(self, record: dict) -> list[str]:
        """Where the wrappers disagree with the device's own counters.

        A layer call count must equal the counter the simulator keeps for
        the same operation, so a seam the tracer failed to wrap (or wrapped
        twice) shows up here.  The self times of the run-phase spans must
        also add up to the measured run time.
        """
        counters = record["counters"]
        calls = self.calls
        requests = counters["requests"]
        expected = {
            "ssd.submit": requests,
            "ftl.submit": requests,
            "sim.ops.begin_capture": requests,
            "sim.ops.end_capture": requests,
            "flash.read_page": counters["flash_reads"],
            "flash.program_page": counters["flash_programs"],
            "flash.erase_block": counters["flash_erases"],
            "flash.scrub_wordline": counters["scrubs"],
            "core.plock": counters["plocks"],
            "core.block_lock": counters["block_locks"],
            "sim.ops.read": counters["flash_reads"],
            "sim.ops.program": counters["flash_programs"],
            "sim.ops.erase": counters["flash_erases"],
            "sim.ops.plock": counters["plocks"],
            "sim.ops.block_lock": counters["block_locks"],
            "sim.ops.scrub": counters["scrubs"],
            "checkpoint.write": counters.get("checkpoint_generations", 0),
        }
        errors = [
            f"{key}.calls={calls[key]} but the device counted {want}"
            for key, want in expected.items()
            if calls[key] != want
        ]
        published = counters.get("telemetry_published", 0)
        events = calls["telemetry.instant"] + calls["telemetry.complete"]
        if events != published:
            errors.append(
                f"telemetry.events={events} but the bus counted {published}"
            )
        attributed = sum(self.self_s.values()) - sum(
            self._acc[key][3] for key in _SETUP
        )
        run_s = record["run_s"]
        if abs(attributed - run_s) > 0.02 * run_s:
            errors.append(
                f"layer self times sum to {attributed:.4f} s, "
                f"outside 2% of the traced run_s {run_s:.4f} s"
            )
        return errors

    def chrome_trace(self, process: str) -> dict[str, object]:
        """The kept spans plus whole-run layer totals as a Chrome trace."""
        events: list[dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": process}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "simulator"}},
        ]
        end_us = 0.0
        for key, start, duration, request in self.spans:
            ts_us = (start - self._t0) * 1e6
            event: dict[str, object] = {
                "name": key, "cat": self.layer_of[key], "ph": "X",
                "ts": ts_us, "dur": duration * 1e6, "pid": 1, "tid": 1,
            }
            if request >= 0:
                event["id"] = request
                event["args"] = {"request": request}
            events.append(event)
            end_us = max(end_us, ts_us + duration * 1e6)
        layers = sorted(set(self.layer_of.values()))
        for name, table in (("layer_self_s", self.self_s), ("layer_calls", self.calls)):
            events.append(
                {"name": name, "cat": "layers", "ph": "C", "ts": end_us,
                 "pid": 1, "tid": 1,
                 "args": {layer: self._layer(table, layer) for layer in layers}}
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path, process: str) -> None:
        payload = self.chrome_trace(process)
        errors = validate_chrome_trace(payload)
        if errors:
            raise ValueError(f"invalid Chrome trace: {errors[0]}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
