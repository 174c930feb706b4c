"""Trace exporters: JSONL and Chrome trace-event JSON (Perfetto).

Two output shapes for the same event stream:

* **JSONL** -- one compact, sorted-key JSON object per line, in
  publication order.  This is the diff-friendly archival format: for a
  fixed seed the bytes are identical run to run, which the golden-file
  and determinism tests assert directly.
* **Chrome trace-event JSON** -- the ``{"traceEvents": [...]}`` format
  loadable in Perfetto / ``chrome://tracing``.  Each simulated run
  becomes one *process* (so ``repro trace`` merges variants side by
  side), and each simulated thread of activity (``host``, ``ftl``,
  ``chip0``.., ``chan0``..) becomes one *thread*, named via ``"M"``
  metadata records.  Timestamps pass through unscaled: simulated
  microseconds are exactly the ``ts`` unit the format expects.

Both shapes carry an **evidence disclosure**: the bus's retention
accounting (events dropped to ring-buffer capacity, events sampled out
by category strides) rides along as a JSONL *header line* /
Chrome-trace ``metadata`` entry, so a downstream consumer -- the
``repro.audit`` trace-replay verifier above all -- can tell a complete
event record from a lossy one instead of silently treating a truncated
stream as the whole truth.

:func:`validate_chrome_trace` is the schema check CI and the tests run
over every emitted file -- catching a malformed field here beats
debugging a silently empty Perfetto UI.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping, Sequence
from pathlib import Path

from repro.telemetry.events import TraceBus, TraceEvent

#: key of the JSONL header line and the Chrome-trace metadata entry.
HEADER_KEY = "repro_trace"

#: format tag embedded in every header (bump on layout change).
HEADER_FORMAT = "repro-trace-jsonl/1"

#: the page-lifecycle instants the observer bridge publishes, by ``(cat,
#: name)``, and the integer (or boolean) args each must carry: what the
#: audit ledger needs to replay them.  An invalidate's ``reason`` and a
#: sanitize's ``method`` are read when present.
LIFECYCLE_ARGS: dict[tuple[str, str], tuple[str, ...]] = {
    ("ftl.page", "program"): ("gppa", "lpa", "secure"),
    ("ftl.page", "invalidate"): ("gppa",),
    ("ftl.sanitize", "sanitize"): ("gppa",),
    ("ftl.flash", "erase"): ("block",),
}


def trace_header(bus: TraceBus, **run_meta: object) -> dict[str, object]:
    """Evidence-disclosure header for one bus's event stream.

    Carries the retention accounting the audit layer needs to decide
    whether the stream is complete evidence: per-category published
    counts (pre-sampling, pre-eviction), the drop and sample counters,
    and the configured sample strides.  ``run_meta`` adds run identity
    (workload/variant/seed/geometry) when the writer knows it.
    """
    stats = bus.stats()
    header: dict[str, object] = {
        "format": HEADER_FORMAT,
        "capacity": stats["capacity"],
        "retained": stats["retained"],
        "dropped_events": stats["dropped"],
        "sampled_out": stats["sampled_out"],
        "sample_strides": dict(sorted(bus.sample.items())),
        "published": stats["published"],
    }
    for key, value in sorted(run_meta.items()):
        header[key] = value
    return header


def to_jsonl(
    events: Sequence[TraceEvent],
    header: Mapping[str, object] | None = None,
) -> str:
    """Serialize events as deterministic JSON lines (trailing newline).

    With ``header`` the first line is ``{"repro_trace": {...}}`` -- the
    evidence-disclosure record of :func:`trace_header`.  Event lines
    never have a ``repro_trace`` key, so readers can distinguish the
    two without positional guessing.
    """
    lines = []
    if header is not None:
        lines.append(
            json.dumps(
                {HEADER_KEY: dict(header)},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    lines.extend(
        json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
        for event in events
    )
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(
    path: str | Path,
    events: Sequence[TraceEvent],
    header: Mapping[str, object] | None = None,
) -> Path:
    target = Path(path)
    target.write_text(to_jsonl(events, header=header), encoding="utf-8")
    return target


def read_jsonl(
    path: str | Path,
) -> tuple[dict[str, object] | None, TraceBus]:
    """Parse a JSONL trace back into ``(header, bus)``.

    The inverse of :func:`write_jsonl`: the optional first-line header
    comes back as a plain dict (``None`` for headerless legacy files),
    and the event lines are loaded, in order, into the columns of a
    :class:`TraceBus` (:meth:`TraceBus.from_events`), the same form a
    live run's evidence takes.  Every record is validated on the way
    in: ``name``/``cat``/``ph``/``tid`` strings, numeric ``ts_us`` and
    ``dur_us``, an object ``args``, and the :data:`LIFECYCLE_ARGS` of a
    page-lifecycle instant.  Any other line
    raises ``ValueError("path:line: ...")`` -- a trace that does not
    parse must fail loudly, not silently audit as empty.
    """
    header: dict[str, object] | None = None

    def events() -> Iterator[TraceEvent]:
        nonlocal header
        for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            if HEADER_KEY in record:
                if lineno != 1 or header is not None:
                    raise ValueError(
                        f"{path}:{lineno}: stray {HEADER_KEY!r} header record"
                    )
                header = record[HEADER_KEY]
                if not isinstance(header, dict):
                    raise ValueError(f"{path}:{lineno}: header is not an object")
                continue
            problem = _record_problem(record)
            if problem is not None:
                raise ValueError(f"{path}:{lineno}: {problem}")
            yield TraceEvent(
                record["name"],
                record["cat"],
                record["ph"],
                record["ts_us"],
                dur_us=record.get("dur_us", 0.0),
                tid=record["tid"],
                args=record.get("args") or {},
            )

    bus = TraceBus.from_events(events())
    return header, bus


def _record_problem(record: dict[str, object]) -> str | None:
    """What makes one event record unloadable, or ``None``."""
    for field in ("name", "cat", "ph", "tid", "ts_us"):
        if field not in record:
            return f"event record missing field {field!r}"
    for field in ("name", "cat", "ph", "tid"):
        if not isinstance(record[field], str):
            return f"event field {field!r} is not a string: {record[field]!r}"
    for field in ("ts_us", "dur_us"):
        value = record.get(field, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"event field {field!r} is not a number: {value!r}"
    args = record.get("args")
    if args is not None and not isinstance(args, dict):
        return f"event args is not an object: {args!r}"
    for key in LIFECYCLE_ARGS.get((record["cat"], record["name"]), ()):
        if not isinstance((args or {}).get(key), int):
            return (
                f"{record['cat']}/{record['name']} event needs an integer "
                f"{key!r} arg: {args!r}"
            )
    return None


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------
def chrome_trace(
    processes: Mapping[str, Sequence[TraceEvent]],
    headers: Mapping[str, Mapping[str, object]] | None = None,
) -> dict[str, object]:
    """Merge per-run event streams into one Chrome trace-event payload.

    ``processes`` maps a display name (typically the variant) to its
    events; each gets its own ``pid`` in insertion order.  String thread
    names map to integer ``tid``s (sorted for determinism) with
    ``thread_name`` metadata alongside, so Perfetto shows ``chip0`` /
    ``chan1`` / ``host`` rows instead of bare numbers.

    ``headers`` (per-process evidence disclosures from
    :func:`trace_header`) ride along as ``"M"`` metadata records named
    :data:`HEADER_KEY`, so a merged trace discloses drops and sample
    strides with the same fidelity as the JSONL stream.
    """
    trace_events: list[dict[str, object]] = []
    for pid, (process, events) in enumerate(processes.items(), start=1):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
        if headers is not None and process in headers:
            trace_events.append(
                {
                    "name": HEADER_KEY,
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": dict(headers[process]),
                }
            )
        tids = sorted({event.tid for event in events})
        tid_of = {name: i for i, name in enumerate(tids, start=1)}
        for name, tid in tid_of.items():
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        for event in events:
            record: dict[str, object] = {
                "name": event.name,
                "cat": event.cat,
                "ph": event.ph,
                "ts": event.ts_us,
                "pid": pid,
                "tid": tid_of[event.tid],
                "args": event.args,
            }
            if event.ph == "X":
                record["dur"] = event.dur_us
            elif event.ph == "i":
                record["s"] = "t"  # instant scoped to its thread
            trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path,
    processes: Mapping[str, Sequence[TraceEvent]],
    headers: Mapping[str, Mapping[str, object]] | None = None,
) -> Path:
    """Write a merged Chrome trace; refuses to emit an invalid payload."""
    payload = chrome_trace(processes, headers=headers)
    errors = validate_chrome_trace(payload)
    if errors:  # pragma: no cover - guarded by construction
        raise ValueError(f"refusing to write invalid trace: {errors[:3]}")
    target = Path(path)
    target.write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return target


#: phases this exporter emits (subset of the full trace-event vocabulary).
_KNOWN_PHASES = frozenset({"X", "i", "M", "C", "B", "E"})


def validate_chrome_trace(payload: object) -> list[str]:
    """Schema-check a Chrome trace payload; returns human-readable errors.

    Checks the fields Perfetto and ``chrome://tracing`` actually key on:
    the ``traceEvents`` array, and per event the ``ph``/``pid``/``tid``/
    ``name`` fields, a numeric ``ts`` on all non-metadata events, a
    numeric non-negative ``dur`` on complete events, and a ``cat`` on
    everything that is not metadata.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            errors.append(f"{where}: bad or missing ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: missing integer {key!r}")
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing string 'name'")
        if ph == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            errors.append(f"{where}: missing numeric 'ts'")
        if not isinstance(event.get("cat"), str):
            errors.append(f"{where}: missing string 'cat'")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event needs 'dur' >= 0")
    return errors
