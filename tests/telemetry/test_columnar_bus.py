"""Differential oracle: the columnar ``TraceBus`` against the object bus.

Random mixes of ``instant``/``complete`` calls -- args dicts in varying
key order, sample strides, small capacities that make the ring evict
and compact, ``enabled=False`` pauses -- are published to the production
bus and to the former object-per-event bus kept in ``legacy_bus.py``.
After every step both must agree on ``events`` (by ``to_dict()``),
``len()``, ``stats()``, ``state_dict()`` and ``segment(since)`` for any
cursor; checkpoint-style segment chains, sent through JSON, must load
back into either bus with the same result.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.events import TraceBus
from tests.telemetry.legacy_bus import TraceBus as LegacyBus

CATS = ("ftl.page", "sim.service", "fault")
NAMES = ("program", "read", "erase")
TIDS = ("ftl", "host", "chip0")
KEYS = ("gppa", "lpa", "stage", "depth", "block")
VALUES = st.one_of(
    st.integers(-5, 1 << 40),
    st.booleans(),
    st.sampled_from(("cell", "bus", "host-trim")),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
#: an args dict built in the drawn key order (or no args at all)
ARGS = st.one_of(
    st.none(),
    st.lists(st.tuples(st.sampled_from(KEYS), VALUES), max_size=4).map(dict),
)
TIMES = st.floats(0.0, 1e7, allow_nan=False)

OPS = st.one_of(
    st.tuples(
        st.just("instant"), st.sampled_from(CATS), st.sampled_from(NAMES),
        st.sampled_from(TIDS), ARGS, TIMES,
    ),
    st.tuples(
        st.just("complete"), st.sampled_from(CATS), st.sampled_from(NAMES),
        st.sampled_from(TIDS), ARGS, TIMES, TIMES,
    ),
    st.tuples(st.just("pause")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restore")),
)


def _publish(bus, op, now):
    if op[0] == "instant":
        _, cat, name, tid, args, ts = op
        now[0] = ts
        bus.instant(cat, name, tid=tid, args=None if args is None else dict(args))
    else:
        _, cat, name, tid, args, ts, dur = op
        bus.complete(
            cat, name, ts_us=ts, dur_us=dur, tid=tid,
            args=None if args is None else dict(args),
        )


def _assert_same(new, old, cursors):
    assert [e.to_dict() for e in new.events] == [e.to_dict() for e in old.events]
    assert len(new) == len(old)
    assert new.pushed == old.pushed
    assert new.stats() == old.stats()
    assert new.state_dict() == old.state_dict()
    for since in cursors:
        since = min(since, old.pushed)
        assert new.segment(since) == old.segment(since)


def _json(segment):
    return json.loads(json.dumps(segment))


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.sampled_from((1, 2, 3, 5, 8, 64)),
    sample=st.dictionaries(st.sampled_from(CATS), st.integers(1, 4), max_size=2),
    ops=st.lists(OPS, max_size=60),
    cursors=st.lists(st.integers(0, 80), max_size=3),
)
def test_columnar_bus_matches_object_bus(capacity, sample, ops, cursors):
    now = [0.0]
    clock = lambda: now[0]  # noqa: E731 - one shared simulated clock
    new = TraceBus(capacity=capacity, sample=sample, clock=clock)
    old = LegacyBus(capacity=capacity, sample=sample, clock=clock)
    chain: list[dict] = []
    state = None
    for op in ops:
        if op[0] == "pause":
            new.enabled = old.enabled = not old.enabled
        elif op[0] == "checkpoint":
            since = chain[-1]["first"] + len(chain[-1]["kind"]) if chain else 0
            segment = old.segment(since)
            assert new.segment(since) == segment
            chain.append(_json(segment))
            # the store drops segments wholly older than the live ring
            chain = [
                s for s in chain if s["first"] + len(s["kind"]) > old.dropped
            ] or chain[-1:]
            state = _json(old.state_dict())
        elif op[0] == "restore" and state is not None:
            new = TraceBus(capacity=capacity, sample=sample, clock=clock)
            old = LegacyBus(capacity=capacity, sample=sample, clock=clock)
            new.load_state_dict(state, chain)
            old.load_state_dict(state, chain)
        elif op[0] in ("instant", "complete"):
            _publish(new, op, now)
            _publish(old, op, now)
        _assert_same(new, old, cursors)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(OPS.filter(lambda op: op[0] in ("instant", "complete")),
                    max_size=40))
def test_from_events_rebuilds_the_same_stream(ops):
    now = [0.0]
    bus = TraceBus(clock=lambda: now[0])
    for op in ops:
        _publish(bus, op, now)
    loaded = TraceBus.from_events(bus.events)
    assert [e.to_dict() for e in loaded.events] == [
        e.to_dict() for e in bus.events
    ]
    assert loaded.segment() == bus.segment()
    assert len(loaded) == len(bus) and loaded.dropped == 0


def test_restore_keeps_only_the_newest_capacity_events():
    """A chain whose oldest segment the ring has partly evicted holds
    more events than the ring; only the newest ``capacity`` come back."""
    buses = [TraceBus(capacity=4), LegacyBus(capacity=4)]
    chains: list[list[dict]] = [[], []]
    for bus, chain in zip(buses, chains):
        for i in range(3):
            bus.instant("c", f"e{i}", args={"i": i})
        chain.append(_json(bus.segment(0)))
        for i in range(3, 5):
            bus.instant("c", f"e{i}", args={"i": i})
        chain.append(_json(bus.segment(3)))
    state = _json(buses[1].state_dict())
    held = sum(len(s["kind"]) for s in chains[1])
    assert held == 5 > state["pushed"] - state["dropped"]
    new, old = TraceBus(capacity=4), LegacyBus(capacity=4)
    new.load_state_dict(state, chains[0])
    old.load_state_dict(state, chains[1])
    _assert_same(new, old, [0, 2, 5])
    assert [e.name for e in new.events] == ["e1", "e2", "e3", "e4"]
