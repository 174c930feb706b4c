"""Trace persistence: save/load file-level traces as JSON lines.

Lets a generated workload trace be captured once and replayed later (or
shipped alongside results), the way the paper replays its fixed Mobile
trace against every SSD variant.  One JSON object per line::

    {"insec":false,"kind":"append","name":"img-0001","npages":32,"offset":0}

Round-tripping preserves the trace exactly.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.host.trace import TraceKind, TraceOp


def op_to_dict(op: TraceOp) -> dict:
    return {
        "kind": op.kind.value,
        "name": op.name,
        "offset": op.offset_pages,
        "npages": op.npages,
        "insec": op.insec,
    }


def op_from_dict(record: object) -> TraceOp:
    """Parse one trace record; ``ValueError("bad trace record: ...")`` if
    it is not an object with a known ``kind``, a string ``name`` and
    non-negative integer ``offset``/``npages``."""
    try:
        if not isinstance(record, dict):
            raise TypeError("not a JSON object")
        kind = TraceKind(record["kind"])
        name = record["name"]
        if not isinstance(name, str):
            raise TypeError(f"name {name!r} is not a string")
        return TraceOp(
            kind=kind,
            name=name,
            offset_pages=int(record.get("offset", 0)),
            npages=int(record.get("npages", 0)),
            insec=bool(record.get("insec", False)),
        )
    except KeyError as exc:
        raise ValueError(f"bad trace record: missing {exc}: {record!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad trace record: {exc}: {record!r}") from exc


def save_trace(path: str | Path, ops: Iterable[TraceOp]) -> int:
    """Write a trace to ``path``; returns the number of ops written."""
    # imported here: repro.checkpoint imports the host layer
    from repro.checkpoint.codec import canonical_dumps

    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for op in ops:
            fh.write(canonical_dumps(op_to_dict(op)))
            count += 1
    return count


def load_trace(path: str | Path) -> Iterator[TraceOp]:
    """Stream a trace back from ``path`` (lazily, line by line).

    A malformed line raises one ``ValueError`` prefixed ``path:line``.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                op = op_from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
            yield op
