"""The structured trace-event bus.

Every layer publishes trace events into one :class:`TraceBus` per run:
the FTLs through the observer bridge (:mod:`repro.telemetry.bridge`),
the fault injector directly, the macro-phase spans through
:mod:`repro.telemetry.spans`, and the discrete-event engine from its
completion handlers.  ``TraceBus.instant`` and ``TraceBus.complete`` are
the only ways to publish.  Timestamps are *simulated* microseconds read
from a pluggable ``clock`` callable -- the open-loop occupancy clock
(``TimingModel.elapsed_us``) by default, overridden with the event-heap
clock when the :mod:`repro.sim` engine drives the run -- never the wall
clock (rule SIM07 applies in spirit here too: a trace must be
byte-identical for the same seed).

The bus stores events as columns from the moment they are published
(DESIGN 3f): a kind-index column into an interned table of ``(name,
cat, ph, tid, sorted arg keys)``, ``ts_us`` and ``dur_us`` columns, and
one flat list of ``args`` values.  That is the layout of a checkpoint
segment, so :meth:`TraceBus.segment` is a slice, and the audit ledger
replays :meth:`TraceBus.columns` directly.  :class:`TraceEvent` objects
exist only on demand: :attr:`TraceBus.events` builds them for export
(JSONL, Perfetto) and inspection.

Memory is bounded two ways:

* **ring-buffer retention** -- the bus keeps the newest ``capacity``
  events and counts what it evicted in :attr:`TraceBus.dropped`;
* **category sampling** -- ``sample={"sim.service": 10}`` keeps every
  10th event of that category (the first of each stride is kept, so a
  sampled stream is a deterministic subsequence of the full one).

Per-category totals in :attr:`TraceBus.category_counts` always count
*published* events, before sampling or eviction, so a snapshot can
report exactly how much was observed vs retained.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple


class TraceEvent:
    """One structured trace record (Chrome trace-event friendly).

    ``ph`` follows the Chrome trace-event phase vocabulary: ``"i"`` for
    instants, ``"X"`` for complete (duration) events.  ``tid`` names the
    simulated thread of activity (``"ftl"``, ``"host"``, ``"chip3"``,
    ``"chan1"``); exporters map it to integer thread ids.
    """

    __slots__ = ("name", "cat", "ph", "ts_us", "dur_us", "tid", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        ph: str,
        ts_us: float,
        dur_us: float = 0.0,
        tid: str = "ftl",
        args: dict[str, object] | None = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts_us = ts_us
        self.dur_us = dur_us
        self.tid = tid
        self.args = args or {}

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts_us": self.ts_us,
            "tid": self.tid,
            "args": self.args,
        }
        if self.ph == "X":
            out["dur_us"] = self.dur_us
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.name!r}, cat={self.cat!r}, ph={self.ph!r}, "
            f"ts={self.ts_us}, tid={self.tid!r})"
        )


class EventColumns(NamedTuple):
    """A bus's retained events as columns, oldest first.

    ``kinds`` is the bus's kind table: one ``(name, cat, ph, tid, keys)``
    tuple per distinct event shape, ``keys`` the sorted ``args`` keys.
    ``kind`` holds one index into it per event, ``ts_us`` one time each,
    and every event's ``args`` values, in key order, go end to end in
    ``values`` -- so a reader walks them with a running offset
    that advances by ``len(keys)`` per event.  The columns are the bus's
    own storage, not copies: read them, never write them.
    """

    kinds: list[tuple[str, str, str, str, tuple[str, ...]]]
    kind: array
    ts_us: array
    values: list[object]


#: ``args=None``: no keys, no values (never mutated).
_NO_ARGS: dict[str, object] = {}


class TraceBus:
    """Bounded, sampled sink for trace events, kept as columns.

    Each admitted event appends one entry to four columns: an index into
    an interned *kind* table of ``(name, cat, ph, tid, sorted arg
    keys)``, ``ts_us`` and ``dur_us`` (``array('d')``), and the offset of
    its ``args`` values in one flat ``values`` list.  These are the
    columns a checkpoint segment stores, so :meth:`segment` is a slice.
    The ring evicts by advancing a head index; the dead prefix is cut
    off once it outgrows half the capacity, so eviction costs amortised
    O(1) and the columns hold at most 1.5x ``capacity`` events.
    """

    def __init__(
        self,
        capacity: int = 65536,
        sample: Mapping[str, int] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        for cat, n in (sample or {}).items():
            if n < 1:
                raise ValueError(f"sample stride for {cat!r} must be >= 1: {n}")
        self.capacity = capacity
        self.sample: dict[str, int] = dict(sample or {})
        #: simulated-time source; ``None`` reads as t=0 (pre-wiring).
        self.clock = clock
        self.dropped = 0
        self.sampled_out = 0
        self.category_counts: dict[str, int] = {}
        #: constant-time kill switch: while False, ``instant``/``complete``
        #: return immediately -- no event recorded, no counting, no clock
        #: read.  Flip it back on to resume publishing; the pause is
        #: invisible to retention accounting (nothing was published).
        self.enabled = True
        #: the kind table and its index by kind tuple.
        self._kinds: list[tuple[str, str, str, str, tuple[str, ...]]] = []
        self._kind_index: dict[tuple, int] = {}
        #: ``(name, cat, ph, tid, *args keys in the caller's order)`` ->
        #: ``(kind index, sorted keys, or None when already sorted)``, so
        #: an emitter that builds its args the same way each time costs
        #: one dict lookup per event and sorts once.
        self._shapes: dict[tuple, tuple[int, tuple[str, ...] | None]] = {}
        self._kind = array("i")
        self._ts = array("d")
        self._dur = array("d")
        #: per event: where its values start, as ``_base`` + list index.
        self._offset = array("q")
        self._values: list[object] = []
        #: values cut off the front of ``_values`` by compaction.
        self._base = 0
        #: column index of the oldest retained event.
        self._head = 0

    # ------------------------------------------------------------------
    def now_us(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _admit(self, cat: str) -> bool:
        counts = self.category_counts
        seen = counts.get(cat, 0)
        counts[cat] = seen + 1
        if not self.sample:
            # the common unsampled bus: one dict get + set, no stride math
            return True
        stride = self.sample.get(cat, 1)
        if stride > 1 and seen % stride != 0:
            self.sampled_out += 1
            return False
        return True

    def _intern(self, spec: tuple[str, str, str, str, tuple[str, ...]]) -> int:
        index = self._kind_index.get(spec)
        if index is None:
            index = self._kind_index[spec] = len(self._kinds)
            self._kinds.append(spec)
        return index

    def _shape(
        self, shape: tuple, args: Mapping[str, object]
    ) -> tuple[int, tuple[str, ...] | None]:
        keys = tuple(sorted(args))
        index = self._intern((*shape[:4], keys))
        found = (index, None if keys == tuple(args) else keys)
        self._shapes[shape] = found
        return found

    def _push(
        self,
        name: str,
        cat: str,
        ph: str,
        tid: str,
        ts_us: float,
        dur_us: float,
        args: Mapping[str, object],
    ) -> None:
        shape = (name, cat, ph, tid, *args)
        found = self._shapes.get(shape)
        if found is None:
            found = self._shape(shape, args)
        index, keys = found
        values = self._values
        self._offset.append(self._base + len(values))
        if keys is None:
            values.extend(args.values())
        else:
            values.extend([args[key] for key in keys])
        kind = self._kind
        kind.append(index)
        self._ts.append(ts_us)
        self._dur.append(dur_us)
        if len(kind) - self._head > self.capacity:
            self.dropped += 1
            self._head += 1
            if self._head > self.capacity >> 1:
                self._compact()

    def _compact(self) -> None:
        """Cut the evicted prefix off every column."""
        head = self._head
        if not head:
            return
        if head < len(self._kind):
            cut = self._offset[head] - self._base
        else:
            cut = len(self._values)
        del self._values[:cut]
        self._base += cut
        for column in (self._kind, self._ts, self._dur, self._offset):
            del column[:head]
        self._head = 0

    # ------------------------------------------------------------------
    def instant(
        self,
        cat: str,
        name: str,
        tid: str = "ftl",
        args: dict[str, object] | None = None,
    ) -> None:
        """Publish a point-in-time event at the current simulated time."""
        if not self.enabled:
            return
        if self._admit(cat):
            self._push(name, cat, "i", tid, self.now_us(), 0.0, args or _NO_ARGS)

    def complete(
        self,
        cat: str,
        name: str,
        ts_us: float,
        dur_us: float,
        tid: str = "ftl",
        args: dict[str, object] | None = None,
    ) -> None:
        """Publish a duration event covering ``[ts_us, ts_us + dur_us]``."""
        if not self.enabled:
            return
        if self._admit(cat):
            self._push(name, cat, "X", tid, ts_us, dur_us, args or _NO_ARGS)

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> TraceBus:
        """A bus holding ``events`` in order, none sampled or evicted.

        The loader for archived and hand-built streams: each event is
        counted as published in its category, and ``capacity`` ends up
        equal to the number of events, as if the ring had just filled.
        """
        bus = cls(capacity=sys.maxsize)
        counts = bus.category_counts
        push = bus._push
        for event in events:
            counts[event.cat] = counts.get(event.cat, 0) + 1
            push(
                event.name, event.cat, event.ph, event.tid,
                event.ts_us, event.dur_us, event.args,
            )
        bus.capacity = max(1, len(bus))
        return bus

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TraceEvent]:
        """Retained events, oldest first, each built on demand."""
        kinds, values, base = self._kinds, self._values, self._base
        offsets, ts_us, dur_us = self._offset, self._ts, self._dur
        for i in range(self._head, len(self._kind)):
            name, cat, ph, tid, keys = kinds[self._kind[i]]
            pos = offsets[i] - base
            yield TraceEvent(
                name, cat, ph, ts_us[i], dur_us=dur_us[i], tid=tid,
                args=dict(zip(keys, values[pos:pos + len(keys)])),
            )

    @property
    def events(self) -> list[TraceEvent]:
        """Retained events, oldest first, as :class:`TraceEvent` objects.

        Built on demand from the columns: for export and inspection.
        Replay (the audit ledger and verifier) reads :meth:`columns`.
        """
        return list(self)

    def columns(self) -> EventColumns:
        """The retained events as columns (see :class:`EventColumns`)."""
        self._compact()
        return EventColumns(self._kinds, self._kind, self._ts, self._values)

    def __len__(self) -> int:
        return len(self._kind) - self._head

    def stats(self) -> dict[str, object]:
        """JSON-ready retention accounting for run snapshots."""
        return {
            "capacity": self.capacity,
            "retained": len(self),
            "dropped": self.dropped,
            "sampled_out": self.sampled_out,
            "published": dict(sorted(self.category_counts.items())),
        }

    # ------------------------------------------------------------------
    @property
    def pushed(self) -> int:
        """Events ever pushed into the ring, evicted ones included.

        The push index of a retained event is its position in that
        stream: the ring holds indices ``dropped .. pushed - 1``.
        """
        return self.dropped + len(self)

    def state_dict(self) -> dict[str, object]:
        """Checkpoint payload: the retention accounting, no events.

        The retained events travel separately, as append-only
        :meth:`segment` slices (see :mod:`repro.checkpoint.store`).
        """
        return {
            "dropped": self.dropped,
            "sampled_out": self.sampled_out,
            "category_counts": dict(self.category_counts),
            "pushed": self.pushed,
        }

    def segment(self, since: int = 0) -> dict[str, object]:
        """The retained events with push index >= ``since``, as columns.

        ``first`` is the push index of the first event.  ``kinds`` lists
        the kinds the slice uses as ``[name, cat, ph, tid, keys]``, in
        order of first appearance, and ``kind`` holds one index into it
        per event.  ``ts_us``, ``dur_us`` and ``values`` are the bus's
        own columns, sliced.
        """
        pushed = self.pushed
        if not 0 <= since <= pushed:
            raise ValueError(f"segment cursor {since} outside 0..{pushed}")
        first = max(since, self.dropped)
        start = self._head + first - self.dropped
        kind = self._kind[start:]
        used = list(dict.fromkeys(kind))
        if used == list(range(len(used))):
            local = kind.tolist()
        else:
            remap = {index: i for i, index in enumerate(used)}
            local = list(map(remap.__getitem__, kind))
        if start < len(self._kind):
            values = self._values[self._offset[start] - self._base:]
        else:
            values = []
        kinds = self._kinds
        return {
            "first": first,
            "kinds": [[*kinds[index][:4], list(kinds[index][4])] for index in used],
            "kind": local,
            "ts_us": self._ts[start:].tolist(),
            "dur_us": self._dur[start:].tolist(),
            "values": values,
        }

    def load_state_dict(
        self,
        state: dict[str, object],
        segments: Sequence[dict[str, object]] = (),
    ) -> None:
        """Restore the accounting and refill the columns from ``segments``.

        The segments must be contiguous and end at the snapshot's push
        count; only the newest ``capacity`` of their events are kept,
        which is exactly what the live ring had kept.
        """
        kind, ts_us, dur_us = array("i"), array("d"), array("d")
        offsets, values = array("q"), []
        end = segments[0]["first"] if segments else 0
        for seg in segments:
            if seg["first"] != end:
                raise ValueError(
                    f"trace segment starts at {seg['first']}, expected {end}"
                )
            local = [
                self._intern((name, cat, ph, tid, tuple(keys)))
                for name, cat, ph, tid, keys in seg["kinds"]
            ]
            arity = [len(keys) for *_, keys in seg["kinds"]]
            n = len(seg["kind"])
            if len(seg["ts_us"]) != n or len(seg["dur_us"]) != n:
                raise ValueError("trace segment columns differ in length")
            if not all(
                isinstance(i, int) and 0 <= i < len(local) for i in seg["kind"]
            ):
                raise ValueError("trace segment kind index outside its kinds")
            pos = len(values)
            for i in seg["kind"]:
                offsets.append(pos)
                pos += arity[i]
            if pos - len(values) != len(seg["values"]):
                raise ValueError("trace segment values do not match its kinds")
            try:
                ts_us.extend(seg["ts_us"])
                dur_us.extend(seg["dur_us"])
            except TypeError as exc:
                raise ValueError(f"trace segment times not numeric: {exc}") from exc
            kind.extend([local[i] for i in seg["kind"]])
            values.extend(seg["values"])
            end += n
        dropped = state["dropped"]
        retained = min(len(kind), self.capacity)
        if end != state["pushed"] or retained != end - dropped:
            raise ValueError(
                f"trace segments end at push {end} holding {retained} "
                f"events; the bus pushed {state['pushed']} and dropped "
                f"{dropped}"
            )
        self.dropped = dropped
        self.sampled_out = state["sampled_out"]
        self.category_counts = dict(state["category_counts"])
        self._kind, self._ts, self._dur = kind, ts_us, dur_us
        self._offset, self._values = offsets, values
        self._base = 0
        self._head = len(kind) - retained
        self._compact()
