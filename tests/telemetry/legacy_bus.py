"""Reference model for the differential test: the object-per-event bus.

A verbatim copy of the original ``TraceBus``, which kept one
:class:`~repro.telemetry.events.TraceEvent` (plus its ``args`` dict) per
event in a ``deque(maxlen=capacity)`` and re-encoded the retained events
into columns at every :meth:`TraceBus.segment` call.  It is kept only as
the oracle ``test_columnar_bus.py`` compares the columnar production bus
against; ``TraceEvent`` is shared with production, so events compare by
``to_dict()``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Mapping, Sequence
from itertools import islice

from repro.telemetry.events import TraceEvent


class TraceBus:
    """Bounded, sampled sink for :class:`TraceEvent` records."""

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
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.sampled_out = 0
        self.category_counts: dict[str, int] = {}
        #: constant-time kill switch: while False, ``instant``/``complete``
        #: return immediately -- no event construction, no counting, no
        #: clock read.  Flip it back on to resume publishing; the pause
        #: is invisible to retention accounting (nothing was published).
        self.enabled = True

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

    def _push(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

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
            self._push(TraceEvent(name, cat, "i", self.now_us(), tid=tid, args=args))

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
            self._push(
                TraceEvent(name, cat, "X", ts_us, dur_us=dur_us, tid=tid, args=args)
            )

    # ------------------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """Retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def stats(self) -> dict[str, object]:
        """JSON-ready retention accounting for run snapshots."""
        return {
            "capacity": self.capacity,
            "retained": len(self._events),
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
        return self.dropped + len(self._events)

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

        ``first`` is the push index of the first event.  An event's
        name, category, phase, thread and sorted ``args`` keys are its
        *kind*: ``kinds`` lists each distinct one as ``[name, cat, ph,
        tid, keys]`` and ``kind`` holds one index into it per event.
        ``ts_us`` and ``dur_us`` are per-event columns, and every
        event's ``args`` values, in key order, go end to end in
        ``values``.
        """
        pushed = self.pushed
        if not 0 <= since <= pushed:
            raise ValueError(f"segment cursor {since} outside 0..{pushed}")
        first = max(since, self.dropped)
        events = list(islice(self._events, first - self.dropped, None))
        # keyed by the args' own key order, so the common case -- every
        # emitter builds its args the same way each time -- sorts once
        seen: dict[tuple, tuple[int, tuple[str, ...]]] = {}
        kinds: dict[tuple, int] = {}
        kind: list[int] = []
        values: list[object] = []
        for event in events:
            args = event.args
            key = (event.name, event.cat, event.ph, event.tid, *args)
            known = seen.get(key)
            if known is None:
                keys = tuple(sorted(args))
                spec = (event.name, event.cat, event.ph, event.tid, keys)
                known = seen[key] = (kinds.setdefault(spec, len(kinds)), keys)
            kind.append(known[0])
            values.extend([args[k] for k in known[1]])
        return {
            "first": first,
            "kinds": [[*spec[:4], list(spec[4])] for spec in kinds],
            "kind": kind,
            "ts_us": [e.ts_us for e in events],
            "dur_us": [e.dur_us for e in events],
            "values": values,
        }

    def load_state_dict(
        self,
        state: dict[str, object],
        segments: Sequence[dict[str, object]] = (),
    ) -> None:
        """Restore the accounting and rebuild the ring from ``segments``.

        The segments must be contiguous and end at the snapshot's push
        count; replaying them into a ``deque(maxlen=capacity)`` evicts
        exactly what the live ring had evicted.
        """
        ring: deque[TraceEvent] = deque(maxlen=self.capacity)
        end = segments[0]["first"] if segments else 0
        for seg in segments:
            if seg["first"] != end:
                raise ValueError(
                    f"trace segment starts at {seg['first']}, expected {end}"
                )
            kinds = [
                (name, cat, ph, tid, tuple(keys))
                for name, cat, ph, tid, keys in seg["kinds"]
            ]
            columns = (seg["kind"], seg["ts_us"], seg["dur_us"])
            if len({len(column) for column in columns}) != 1:
                raise ValueError("trace segment columns differ in length")
            values = seg["values"]
            pos = 0
            for index, ts_us, dur_us in zip(*columns):
                name, cat, ph, tid, keys = kinds[index]
                stop = pos + len(keys)
                ring.append(
                    TraceEvent(
                        name, cat, ph, ts_us, dur_us=dur_us, tid=tid,
                        args=dict(zip(keys, values[pos:stop])),
                    )
                )
                pos = stop
            if pos != len(values):
                raise ValueError("trace segment values do not match its kinds")
            end += len(columns[0])
        dropped = state["dropped"]
        if end != state["pushed"] or len(ring) != end - dropped:
            raise ValueError(
                f"trace segments end at push {end} holding {len(ring)} "
                f"events; the bus pushed {state['pushed']} and dropped "
                f"{dropped}"
            )
        self.dropped = dropped
        self.sampled_out = state["sampled_out"]
        self.category_counts = dict(state["category_counts"])
        self._events = ring
