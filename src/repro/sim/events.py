"""Deterministic simulated clock.

The queueing engine is a textbook discrete-event simulator: a priority
queue of future events ordered by simulated time, popped one at a time,
each handler possibly scheduling further events.  The engine owns that
event list (see ``QueueingEngine._schedule``).  Everything about it is
deliberately boring -- determinism is the whole point:

* ties on the timestamp break on a monotonically increasing insertion
  sequence number, so same-time events fire in the order they were
  scheduled (no heap-internal nondeterminism, no id()-based ordering);
* the clock only ever moves forward; scheduling into the past is a bug
  and raises immediately instead of silently reordering history;
* there is no wall-clock anywhere -- rule SIM07 (`repro lint`) enforces
  that nothing under ``repro/sim/`` imports ``time`` or ``datetime`` or
  draws from module-level RNG state.
"""

from __future__ import annotations


class SimClock:
    """Monotonic simulated time in microseconds."""

    def __init__(self) -> None:
        self.now_us = 0.0

    def advance_to(self, time_us: float) -> None:
        if time_us < self.now_us:
            raise ValueError(
                f"clock cannot move backwards: {time_us} < {self.now_us}"
            )
        self.now_us = time_us
