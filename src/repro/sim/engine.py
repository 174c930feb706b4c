"""The discrete-event queueing engine.

How a request flows:

1. An **arrival** event dispatches the request to the real FTL
   (``ssd.submit``), which executes *functionally* right away -- mapping
   updates, GC, sanitization, fault handling -- while the installed
   :class:`~repro.sim.ops.RecordingTiming` captures every primitive
   flash operation it scheduled.
2. Each captured operation becomes one or two **service segments** on
   the simulated resources: a read senses on its chip then transfers on
   its channel; a program transfers then occupies the chip; erases,
   lock pulses, and scrubs occupy the chip only.  Segments queue per
   resource and are picked by the scheduling policy.
3. The request **completes** when its last segment finishes; end-to-end
   latency is completion minus arrival.  Closed-loop arrivals release
   the next request at that instant.

Two dispatch paths share this model (DESIGN.md 3e).  Under an in-order
policy (``fifo``) each stage starts at ``max(server free-at, now,
previous stage's end)``, all known at dispatch, so an untraced
closed-loop engine takes the **calendar** path: it reserves every
stage's service window at once and schedules one completion event per
request.  Every other engine takes the **segment** path: a
:class:`Segment` per stage, queued per resource, with one DONE event per
stage.  That covers the event-driven policies (``read_priority``,
``suspend``, ``defer``), traced ``fifo`` runs, whose DONE events emit the
``sim.service`` spans in order, and open-loop ``fifo`` runs.  Both paths
give the same report.  ``events`` counts arrivals plus service segments
on either path.  The only difference is the order of latency samples
recorded at one simulated instant.

The engine therefore answers what the open-loop occupancy model cannot:
how long a host request *waits* behind GC relocation storms, erase
trains, and sanitization pulses -- while the FTL state, statistics, and
fault behaviour stay exactly those of the replayed variant.  Under a
saturating closed-loop load the same run also carries the open-loop
answer (``RecordingTiming`` inherits the occupancy accounting), which is
the agreement contract ``tests/sim/test_crosscheck.py`` enforces.

Determinism: a single seeded request stream, seeded arrival processes,
FIFO tie-breaks on insertion order, and no wall clock (rule SIM07).
Identical seeds produce byte-identical reports.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.ftl.observer import notify_optional
from repro.sim.events import SimClock
from repro.sim.metrics import DepthSeries, LatencyRecorder, WorkSeries
from repro.sim.ops import FlashOp, OpKind, RecordingTiming
from repro.sim.policies import DeferLocksPolicy, SchedulingPolicy
from repro.ssd.device import SSD
from repro.ssd.request import IoRequest, RequestOp
from repro.telemetry import Telemetry  # lint: disable=SIM14 -- cross-cutting observability seam, zero-cost when disabled

_EV_ARRIVAL = "arrival"
_EV_DONE = "done"
_EV_COMPLETE = "complete"


@dataclass(slots=True)
class _InFlight:
    """One dispatched host request awaiting its service segments."""

    index: int
    op: RequestOp
    arrival_us: float
    remaining: int = 0


class _DrainBatch:
    """Telemetry bookkeeping for one deferred-lock drain.

    The drain *span* covers the batch from the flush decision until its
    last pulse finishes service; since pulses complete one ``DONE``
    event at a time, the batch counts them down and the final one emits
    the span.
    """

    __slots__ = ("chip", "start_us", "waited_us", "n_locks", "remaining")

    def __init__(
        self, chip: int | None, start_us: float, waited_us: float, n_locks: int
    ) -> None:
        self.chip = chip
        self.start_us = start_us
        self.waited_us = waited_us
        self.n_locks = n_locks
        self.remaining = n_locks


class Segment:
    """One stage of one flash operation on one resource."""

    __slots__ = (
        "kind",
        "stage",
        "duration_us",
        "request",
        "successor",
        "ready",
        "seq",
        "drain",
        "sanitize",
    )

    def __init__(
        self,
        kind: OpKind,
        stage: str,
        duration_us: float,
        request: _InFlight | None,
        sanitize: bool = False,
    ) -> None:
        self.kind = kind
        self.stage = stage  # "cell" (chip) | "xfer" (channel)
        self.duration_us = duration_us
        self.request = request
        #: sanitization attribution carried from the captured FlashOp;
        #: survives a severed request link (deferred lock pulses).
        self.sanitize = sanitize
        #: a two-stage op's second stage and its server.  In-order mode
        #: queues it at dispatch, unready, and readies it when this stage
        #: ends; work-conserving mode queues it when this stage ends.
        self.successor: tuple[Server, Segment] | None = None
        #: in-order mode: an unready head-of-queue segment *stalls* its
        #: server (the open-loop model's reservation semantics).
        self.ready = True
        self.seq = -1  # assigned at enqueue time
        #: telemetry: set on deferred lock pulses when tracing is on; the
        #: last segment of the batch to finish emits the drain span.
        self.drain: _DrainBatch | None = None


class Server:
    """One simulated resource (a chip or a channel) with its queue."""

    __slots__ = (
        "key",
        "chip_id",
        "queue",
        "current",
        "current_start_us",
        "current_end_us",
        "token",
        "busy_us",
        "pending_locks",
        "oldest_pending_us",
        "free_at",
        "waiting",
    )

    def __init__(self, key: str, chip_id: int | None, fifo: bool = False) -> None:
        self.key = key
        self.chip_id = chip_id  # None for channels
        # FIFO-family non-preemptive policies keep strict submission
        # order, so the queue degenerates to a deque of bare Segments
        # (append/popleft); priority policies get a heap of
        # (priority, seq, Segment) tuples
        self.queue: deque[Segment] | list[tuple[int, int, Segment]] = (
            deque() if fifo else []
        )
        self.current: Segment | None = None
        self.current_start_us = 0.0
        self.current_end_us = 0.0
        self.token = 0
        self.busy_us = 0.0
        self.pending_locks: list[Segment] = []
        self.oldest_pending_us = 0.0
        #: calendar mode: when the last stage reserved on this server
        #: finishes service, and the start times of the reserved stages
        #: that have not started yet, in start order.
        self.free_at = 0.0
        self.waiting: deque[float] = deque()

    @property
    def idle(self) -> bool:
        return self.current is None and not self.queue


@dataclass
class EngineReport:
    """Everything one engine run measured (JSON-ready, deterministic)."""

    completed: int
    sim_elapsed_us: float
    open_loop_elapsed_us: float
    #: arrivals plus simulated service segments, whichever dispatch path
    #: ran (the segment path pushes one DONE event per segment).
    events: int
    latency: dict[str, dict[str, float]]
    utilization: dict[str, float]
    queue_depth: list[tuple[float, int]]
    in_flight_peak: int
    mean_in_flight: float
    queued_segments_peak: int
    deferred_lock_pulses: int
    lock_drains: int
    suspensions: int
    checker: dict[str, int] = field(default_factory=dict)
    #: sanitization flash work issued but not yet serviced, as a
    #: (time_us, backlog_us) step series.  Counts every captured op the
    #: FTL tagged as sanitization: lock and scrub pulses wherever they
    #: appear, plus reads/programs/erases issued inside a
    #: ``timing.sanitize_region()`` (relocation copies, padding
    #: programs, sanitize erases).  Plain host I/O and
    #: capacity-reclamation GC stay out (DESIGN.md 3j).
    sanitize_backlog: list[tuple[float, float]] = field(default_factory=list)
    sanitize_backlog_peak_us: float = 0.0
    sanitize_backlog_mean_us: float = 0.0

    @property
    def iops(self) -> float:
        """Completed host requests per second of simulated time."""
        if self.sim_elapsed_us <= 0.0:
            return 0.0
        return self.completed / (self.sim_elapsed_us / 1e6)

    @property
    def open_loop_iops(self) -> float:
        """The occupancy model's IOPS for the identical request order."""
        if self.open_loop_elapsed_us <= 0.0:
            return 0.0
        return self.completed / (self.open_loop_elapsed_us / 1e6)

    @property
    def open_loop_agreement(self) -> float:
        """engine IOPS / open-loop IOPS (1.0 = perfect agreement)."""
        if self.open_loop_iops == 0.0:
            return 0.0
        return self.iops / self.open_loop_iops

    def to_dict(self) -> dict[str, object]:
        return {
            "completed": self.completed,
            "sim_elapsed_us": self.sim_elapsed_us,
            "open_loop_elapsed_us": self.open_loop_elapsed_us,
            "iops": self.iops,
            "open_loop_iops": self.open_loop_iops,
            "open_loop_agreement": self.open_loop_agreement,
            "events": self.events,
            "latency": self.latency,
            "utilization": self.utilization,
            "queue_depth": [[t, d] for t, d in self.queue_depth],
            "in_flight_peak": self.in_flight_peak,
            "mean_in_flight": self.mean_in_flight,
            "queued_segments_peak": self.queued_segments_peak,
            "deferred_lock_pulses": self.deferred_lock_pulses,
            "lock_drains": self.lock_drains,
            "suspensions": self.suspensions,
            "checker": self.checker,
            "sanitize_backlog": [[t, b] for t, b in self.sanitize_backlog],
            "sanitize_backlog_peak_us": self.sanitize_backlog_peak_us,
            "sanitize_backlog_mean_us": self.sanitize_backlog_mean_us,
        }


class QueueingEngine:
    """Runs one request stream through one SSD under one policy."""

    def __init__(
        self,
        ssd: SSD,
        requests: list[IoRequest],
        arrivals,
        policy: SchedulingPolicy,
        steady_start: int = 0,
    ) -> None:
        timing = ssd.ftl.timing
        if not isinstance(timing, RecordingTiming):
            raise TypeError(
                "the engine needs a RecordingTiming installed via "
                "SSD.instrument_timing (see repro.sim.runner)"
            )
        if not 0 <= steady_start <= len(requests):
            raise ValueError("steady_start out of range")
        self.ssd = ssd
        self.timing = timing
        self.requests = requests
        self.arrivals = arrivals
        self.policy = policy
        self.steady_start = steady_start
        #: dispatch horizon: requests with index >= _limit are not
        #: released.  ``run()`` sets it to the full stream; checkpointed
        #: campaigns move it forward window by window (``run_window``).
        self._limit = len(requests)

        # a policy that never overrides priority() (FIFO family) and
        # never preempts keeps heap order exactly submission order: server
        # queues become deques (see Server)
        self._fifo_queues: bool = (
            type(policy).priority is SchedulingPolicy.priority
            and not policy.preemptive
        )
        n_chips = timing.n_chips
        fifo = self._fifo_queues
        self.servers: list[Server] = [
            Server(f"chip{i}", chip_id=i, fifo=fifo) for i in range(n_chips)
        ] + [
            Server(f"chan{j}", chip_id=None, fifo=fifo)
            for j in range(timing.n_channels)
        ]
        self._chan_base = n_chips
        self._cpc = timing.chips_per_channel

        self.clock = SimClock()
        #: the event list: a min-heap of (time_us, seq, kind, payload)
        #: tuples; ``seq`` breaks time ties in scheduling order.  Only
        #: ``_schedule`` pushes, so the sequence and the pushed count
        #: (the report's ``events``) stay authoritative.
        self._events: list[tuple[float, int, str, object]] = []
        self._event_seq = 0
        self._events_pushed = 0
        self.latency = LatencyRecorder()
        self.depth = DepthSeries()
        #: outstanding sanitization-class flash work (lock pulses,
        #: scrubs, erases issued but not yet serviced), in microseconds
        #: of chip time; sampled into a step series on every change.
        self.sanitize_backlog = WorkSeries()
        self._sanitize_backlog_us = 0.0
        self._seq = 0
        self._next_index = 0
        self._arrival_time_us = 0.0
        self.in_flight = 0
        self.completed = 0
        self.queued_segments = 0
        self.queued_segments_peak = 0
        self.deferred_lock_pulses = 0
        self.lock_drains = 0
        self.suspensions = 0

        # closed-loop runs re-point the trace clock at the event heap:
        # the FTL's functional execution happens instantaneously at
        # dispatch time, so its spans collapse to zero duration at the
        # dispatch instant while keeping their nesting (depth args).
        self._tel: Telemetry | None = getattr(ssd, "telemetry", None)
        if self._tel is not None:
            self._tel.bus.clock = lambda: self.clock.now_us

        #: calendar mode (DESIGN.md 3e): an in-order policy fixes every
        #: stage's service window at dispatch, so untraced closed-loop
        #: runs schedule one completion event per request instead of one
        #: per stage.  Traced runs keep the segment path, whose DONE
        #: events emit the ``sim.service`` spans in their order; so do
        #: open-loop runs, whose arrivals can tie with stage ends.
        self._calendar = (
            policy.in_order and self._tel is None and arrivals.closed_loop
        )
        #: calendar mode: min-heap of (end, duration) of sanitize-tagged
        #: cell stages not yet taken off the backlog series.
        self._backlog_ends: list[tuple[float, float]] = []

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self) -> EngineReport:
        self.run_window(len(self.requests))
        return self._report()

    def run_window(self, stop: int) -> None:
        """Dispatch and fully drain requests up to index ``stop``.

        At return the engine is *quiescent* -- heap empty, nothing in
        flight, every server idle with no pending lock pulses -- which
        is the only point a device checkpoint is taken (see
        repro.checkpoint.campaign).  ``run()`` is exactly one window
        over the whole stream.
        """
        if not self._next_index <= stop <= len(self.requests):
            raise ValueError(
                f"window stop {stop} out of range "
                f"[{self._next_index}, {len(self.requests)}]"
            )
        self._limit = stop
        self._seed_arrivals()
        # the loop body executes once per event (hundreds of thousands
        # per run): bind the hot callables/objects to locals
        entries = self._events
        pop = heapq.heappop
        clock = self.clock
        dispatch = self._dispatch_calendar if self._calendar else self._dispatch
        on_done = self._on_done
        complete = self._complete
        while True:
            while entries:
                time_us, _seq, kind, payload = pop(entries)
                if time_us < clock.now_us:  # SimClock.advance_to, inlined
                    clock.advance_to(time_us)  # raises the canonical error
                clock.now_us = time_us
                if kind == _EV_ARRIVAL:
                    dispatch(payload)
                elif kind == _EV_DONE:
                    server, token = payload
                    on_done(server, token)
                else:  # _EV_COMPLETE (calendar mode)
                    complete(payload)
            if self._calendar:
                # every reserved stage has started and ended by the last
                # completion: empty the queues and the backlog
                for server in self.servers:
                    self.queued_segments -= len(server.waiting)
                    server.waiting.clear()
                self._flush_backlog(clock.now_us)
                break
            stragglers = [s for s in self.servers if s.pending_locks]
            if not stragglers:
                break
            # lock pulses deferred on chips that never went idle and saw
            # no later traffic: the window's final idle gap drains them.
            for server in stragglers:
                self._drain_locks(server)

    def _schedule(
        self, time_us: float, kind: str, payload: object, count: int = 1
    ) -> None:
        """Push an event; it counts as ``count`` events in the insertion
        sequence and in ``events`` (see _dispatch_calendar)."""
        if time_us < 0.0:
            raise ValueError("event time must be non-negative")
        heapq.heappush(self._events, (time_us, self._event_seq, kind, payload))
        self._event_seq += count
        self._events_pushed += count

    def _seed_arrivals(self) -> None:
        limit = self._limit
        if self._next_index >= limit:
            return
        now = self.clock.now_us
        if self.arrivals.closed_loop:
            first = min(self.arrivals.queue_depth, limit - self._next_index)
            for _ in range(first):
                self._schedule(now, _EV_ARRIVAL, self._next_index)
                self._next_index += 1
        elif self._next_index == 0:
            # the stream's very first arrival is pinned at t=0 and
            # consumes no RNG draw (the historical open-loop contract)
            self._schedule(0.0, _EV_ARRIVAL, 0)
            self._next_index = 1
        else:
            # a resumed open-loop window: draw the next gap exactly as
            # _dispatch would have
            self._arrival_time_us += self.arrivals.interarrival_us()
            self._schedule(
                max(self._arrival_time_us, now), _EV_ARRIVAL, self._next_index
            )
            self._next_index += 1

    # ------------------------------------------------------------------
    # arrivals and dispatch
    # ------------------------------------------------------------------
    def _admit(self, index: int) -> tuple[_InFlight, list[FlashOp]]:
        """Start request ``index`` at the current instant.

        Schedules the next open-loop arrival, runs the request through
        the FTL while capturing its flash ops, and counts it in flight.
        """
        now = self.clock.now_us
        if not self.arrivals.closed_loop and self._next_index < self._limit:
            self._arrival_time_us += self.arrivals.interarrival_us()
            self._schedule(
                max(self._arrival_time_us, now), _EV_ARRIVAL, self._next_index
            )
            self._next_index += 1

        request = self.requests[index]
        self.timing.begin_capture()
        self.ssd.submit(request)  # functional execution + op capture
        ops = self.timing.end_capture()

        inflight = _InFlight(index=index, op=request.op, arrival_us=now)
        self.in_flight += 1
        self.depth.record(now, self.in_flight)
        return inflight, ops

    def _dispatch(self, index: int) -> None:
        inflight, ops = self._admit(index)
        now = self.clock.now_us
        deferring = isinstance(self.policy, DeferLocksPolicy)
        in_order = self.policy.in_order
        # the ops loop runs once per captured flash op; hoist the
        # per-iteration attribute walks out of it
        timing = self.timing
        t_read = timing.t_read_us
        t_prog = timing.t_prog_us
        t_xfer = timing.t_xfer_us
        servers = self.servers
        chan_base = self._chan_base
        cpc = self._cpc
        backlog_add = 0.0
        for op in ops:
            kind = op.kind
            chip = servers[op.chip_id]
            sanitize = op.sanitize
            if kind is OpKind.READ or kind is OpKind.PROGRAM:
                # a read senses on its chip, then transfers on its
                # channel; a program transfers, then occupies the chip
                cell_us = t_read if kind is OpKind.READ else t_prog
                if sanitize:
                    backlog_add += cell_us
                inflight.remaining += 2
                cell = (chip, Segment(kind, "cell", cell_us, inflight, sanitize))
                xfer = (
                    servers[chan_base + op.chip_id // cpc],
                    Segment(kind, "xfer", t_xfer, inflight, sanitize),
                )
                (server, first), second = (
                    (cell, xfer) if kind is OpKind.READ else (xfer, cell)
                )
                first.successor = second
                self._enqueue(server, first)
                if in_order:
                    # the second stage sits unready in its server's queue;
                    # under the FIFO discipline an unready head stalls the
                    # server, reproducing the open-loop model's
                    # in-submission-order resource reservation (and its
                    # head-of-line blocking) exactly
                    second[1].ready = False
                    self._enqueue(*second)
            else:
                # the FlashOp carries the attribution (lock/scrub pulses
                # always; reads/programs/erases when the FTL captured
                # them inside a sanitize_region).  Tagged work joins the
                # backlog the instant the FTL issues it, whether queued
                # for service now or parked by lock deferral.
                duration = timing.cell_duration_us(kind)
                if sanitize:
                    backlog_add += duration
                seg = Segment(kind, "cell", duration, inflight, sanitize)
                if deferring and self.policy.defers(seg):
                    seg.request = None  # off the request critical path
                    self._defer_lock(chip, seg)
                else:
                    inflight.remaining += 1
                    self._enqueue(chip, seg)

        if backlog_add > 0.0:
            backlog_us = self._sanitize_backlog_us + backlog_add
            self._sanitize_backlog_us = backlog_us
            self.sanitize_backlog.record(now, backlog_us)
        if inflight.remaining == 0:
            # unmapped reads / pure-trim bookkeeping: no flash service
            self._complete(inflight)

    def _dispatch_calendar(self, index: int) -> None:
        """Calendar mode: reserve every stage's service window now.

        In-order service starts each stage at
        ``max(server free-at, now, previous stage's end)`` -- the moment
        the segment path would start it -- so the whole schedule, and the
        request's completion time, is known here.  One completion event
        is scheduled at the latest stage end.
        """
        inflight, ops = self._admit(index)
        now = self.clock.now_us
        timing = self.timing
        queued = self._retire(now)
        peak = self.queued_segments_peak
        t_read = timing.t_read_us
        t_prog = timing.t_prog_us
        t_xfer = timing.t_xfer_us
        servers = self.servers
        chan_base = self._chan_base
        cpc = self._cpc
        backlog_add = 0.0
        backlog_ends = self._backlog_ends
        done = now
        n_segments = 0
        for op in ops:
            kind = op.kind
            chip = servers[op.chip_id]
            second: Server | None = None
            if kind is OpKind.READ:
                first, d1 = chip, t_read
                second, d2 = servers[chan_base + op.chip_id // cpc], t_xfer
                cell_d = t_read
            elif kind is OpKind.PROGRAM:
                first, d1 = servers[chan_base + op.chip_id // cpc], t_xfer
                second, d2 = chip, t_prog
                cell_d = t_prog
            else:
                first, d1 = chip, timing.cell_duration_us(kind)
                cell_d = d1
            # the first stage starts at once on a server free by now, else
            # it waits for the server's last reserved stage.  Either way
            # it passes through the queue, as on the segment path.
            queued += 1
            if queued > peak:
                peak = queued
            free = first.free_at
            if free > now:
                start = free
                first.waiting.append(start)
            else:
                start = now
                queued -= 1
            end = start + d1
            first.free_at = end
            first.busy_us += end - start
            first.token += 1
            cell_end = end
            if second is not None:
                # the second stage is unready until the first ends, after
                # now: it always waits
                free = second.free_at
                start = free if free > end else end
                end = start + d2
                queued += 1
                if queued > peak:
                    peak = queued
                second.waiting.append(start)
                second.free_at = end
                second.busy_us += end - start
                second.token += 1
                n_segments += 2
                if second is chip:
                    cell_end = end
            else:
                n_segments += 1
            if op.sanitize:
                backlog_add += cell_d
                heapq.heappush(backlog_ends, (cell_end, cell_d))
            if end > done:
                done = end
        self.queued_segments = queued
        self.queued_segments_peak = peak

        if backlog_add > 0.0:
            self._flush_backlog(now)
            backlog_us = self._sanitize_backlog_us + backlog_add
            self._sanitize_backlog_us = backlog_us
            self.sanitize_backlog.record(now, backlog_us)
        if n_segments == 0:
            self._complete(inflight)  # no flash service
            return
        # the completion event stands in for the request's n_segments
        # stage-end events: it counts as that many in the event sequence
        # and ``events``, so both read as on the segment path
        self._seq += n_segments
        self._schedule(done, _EV_COMPLETE, inflight, count=n_segments)

    def _retire(self, now: float) -> int:
        """Calendar mode: drop the reserved stages that have started by
        the time this arrival is handled; returns the queued count.

        Every stage starting at or before ``now`` has, since on the
        segment path every event at ``now`` precedes a closed-loop
        arrival: the completion that releases it is handled at ``now``.
        """
        queued = self.queued_segments
        for server in self.servers:
            waiting = server.waiting
            while waiting and waiting[0] <= now:
                waiting.popleft()
                queued -= 1
        return queued

    def _flush_backlog(self, now: float) -> None:
        """Calendar mode: take sanitize cell stages ended by ``now`` off
        the backlog series, at their end times, in time order."""
        ends = self._backlog_ends
        backlog_us = self._sanitize_backlog_us
        while ends and ends[0][0] <= now:
            end, duration = heapq.heappop(ends)
            backlog_us -= duration
            self.sanitize_backlog.record(end, backlog_us)
        self._sanitize_backlog_us = backlog_us

    def _defer_lock(self, server: Server, segment: Segment) -> None:
        if not server.pending_locks:
            server.oldest_pending_us = self.clock.now_us
        server.pending_locks.append(segment)
        self.deferred_lock_pulses += 1
        if len(server.pending_locks) >= self.policy.max_pending:
            self._drain_locks(server)

    def _drain_locks(self, server: Server) -> None:
        """Flush a chip's pending lock pulses into its service queue."""
        pending, server.pending_locks = server.pending_locks, []
        if not pending:
            return
        waited_us = self.clock.now_us - server.oldest_pending_us
        self.lock_drains += 1
        if self._tel is not None:
            batch = _DrainBatch(
                server.chip_id, self.clock.now_us, waited_us, len(pending)
            )
            for segment in pending:
                segment.drain = batch
        for segment in pending:
            self._enqueue(server, segment, priority=self.policy.DRAIN_PRIORITY)
        notify_optional(
            self.ssd.ftl.observer,
            "on_lock_deferred",
            server.chip_id,
            len(pending),
            waited_us,
        )

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    def _enqueue(
        self, server: Server, segment: Segment, priority: int | None = None
    ) -> None:
        segment.seq = self._seq
        self._seq += 1
        if self._fifo_queues:
            # a priority override (lock-drain flush) cannot reach a FIFO
            # queue: only DeferLocksPolicy defers, and it is priority-based
            server.queue.append(segment)
        else:
            if priority is None:
                priority = self.policy.priority(segment)
            heapq.heappush(server.queue, (priority, segment.seq, segment))
        self.queued_segments += 1
        if self.queued_segments > self.queued_segments_peak:
            self.queued_segments_peak = self.queued_segments
        if server.current is None:
            self._start_next(server)
        elif (
            self.policy.preemptive
            and server.current_end_us > self.clock.now_us
            and self.policy.preempts(segment, server.current)
        ):
            self._suspend_current(server)
            self._start_next(server)

    def _suspend_current(self, server: Server) -> None:
        """Pause the in-service cell op; it resumes with remaining time."""
        segment = server.current
        assert segment is not None
        now = self.clock.now_us
        remaining = server.current_end_us - now
        server.busy_us += now - server.current_start_us
        segment.duration_us = remaining + self.policy.resume_overhead_us
        server.current = None
        server.token += 1  # the scheduled DONE event is now stale
        # the original seq keeps the suspended op ahead of later arrivals
        # of its own priority class
        heapq.heappush(
            server.queue, (self.policy.priority(segment), segment.seq, segment)
        )
        self.queued_segments += 1
        self.suspensions += 1

    def _start_next(self, server: Server) -> None:
        queue = server.queue
        if server.current is not None or not queue:
            return
        segment = queue[0] if self._fifo_queues else queue[0][2]
        if not segment.ready:
            return  # in-order mode: head-of-line stall until ready
        if self._fifo_queues:
            queue.popleft()
        else:
            heapq.heappop(queue)
        self.queued_segments -= 1
        now = self.clock.now_us
        server.current = segment
        server.current_start_us = now
        end = now + segment.duration_us
        server.current_end_us = end
        token = server.token + 1
        server.token = token
        self._schedule(end, _EV_DONE, (server, token))

    def _on_done(self, server: Server, token: int) -> None:
        if token != server.token:
            return  # suspended/stale completion
        segment = server.current
        assert segment is not None
        now = self.clock.now_us
        server.busy_us += now - server.current_start_us
        if self._tel is not None:
            self._tel.bus.complete(
                "sim.service",
                segment.kind.value,
                ts_us=server.current_start_us,
                dur_us=now - server.current_start_us,
                tid=server.key,
                args={"stage": segment.stage},
            )
            if segment.drain is not None:
                batch = segment.drain
                batch.remaining -= 1
                if batch.remaining == 0:
                    self._tel.bus.complete(
                        "sim.drain",
                        "lock_drain",
                        ts_us=batch.start_us,
                        dur_us=now - batch.start_us,
                        tid=server.key,
                        args={
                            "n_locks": batch.n_locks,
                            "waited_us": batch.waited_us,
                        },
                    )
        server.current = None
        kind = segment.kind
        if segment.stage == "cell" and segment.sanitize:
            # mirror of _dispatch's accounting: an op leaves the backlog
            # only if it entered it (its FlashOp tag, carried on the
            # segment -- robust to a deferred lock's severed request
            # link).  It leaves at its *canonical* duration -- what
            # _dispatch added -- not segment.duration_us, which a
            # suspension rewrites to the remaining time.
            backlog_us = (
                self._sanitize_backlog_us
                - self.timing.cell_duration_us(kind)
            )
            self._sanitize_backlog_us = backlog_us
            self.sanitize_backlog.record(now, backlog_us)
        if segment.successor is not None:
            target, successor = segment.successor
            if self.policy.in_order:
                successor.ready = True  # queued at dispatch
                if target.current is None:
                    self._start_next(target)
            else:
                self._enqueue(target, successor)
        if segment.request is not None:
            segment.request.remaining -= 1
            if segment.request.remaining == 0:
                self._complete(segment.request)
        if server.pending_locks and server.idle:
            self._drain_locks(server)  # the idle window deferral waits for
        # _drain_locks above may already have restarted this server via
        # _enqueue; _start_next then returns early
        self._start_next(server)

    def _complete(self, inflight: _InFlight) -> None:
        now = self.clock.now_us
        self.completed += 1
        self.in_flight -= 1
        self.depth.record(now, self.in_flight)
        if self._tel is not None:
            self._tel.bus.complete(
                "sim.request",
                inflight.op.value,
                ts_us=inflight.arrival_us,
                dur_us=now - inflight.arrival_us,
                tid="host",
                args={"index": inflight.index},
            )
        if inflight.index >= self.steady_start:
            self.latency.add(inflight.op, now - inflight.arrival_us)
        if self.arrivals.closed_loop and self._next_index < self._limit:
            self._schedule(now, _EV_ARRIVAL, self._next_index)
            self._next_index += 1

    # ------------------------------------------------------------------
    # checkpoint support (repro.checkpoint)
    # ------------------------------------------------------------------
    def assert_quiescent(self) -> None:
        """Raise unless the engine is at a checkpointable boundary."""
        if self._events:
            raise RuntimeError("engine not quiescent: events pending")
        if self.in_flight:
            raise RuntimeError(
                f"engine not quiescent: {self.in_flight} request(s) in flight"
            )
        if self.queued_segments:
            raise RuntimeError(
                f"engine not quiescent: {self.queued_segments} queued segment(s)"
            )
        for server in self.servers:
            if server.current is not None or server.queue or server.pending_locks:
                raise RuntimeError(
                    f"engine not quiescent: server {server.key} busy"
                )

    def state_dict(self) -> dict[str, object]:
        """Checkpoint payload; only valid at a quiescent boundary (the
        heap and server queues hold live object graphs that need not --
        and therefore must not -- be serialized)."""
        self.assert_quiescent()
        return {
            "clock_us": self.clock.now_us,
            "heap_seq": self._event_seq,
            "heap_pushed": self._events_pushed,
            "seq": self._seq,
            "next_index": self._next_index,
            "arrival_time_us": self._arrival_time_us,
            "completed": self.completed,
            "queued_segments_peak": self.queued_segments_peak,
            "deferred_lock_pulses": self.deferred_lock_pulses,
            "lock_drains": self.lock_drains,
            "suspensions": self.suspensions,
            "servers": [
                {"busy_us": s.busy_us, "token": s.token} for s in self.servers
            ],
            "latency": self.latency.state_dict(),
            "depth": self.depth.state_dict(),
            "arrivals": self.arrivals.state_dict(),
            "sanitize_backlog": self.sanitize_backlog.state_dict(),
            # float residue of the add/subtract stream (quiescent means
            # logically zero, but resumed runs must keep the exact value
            # so their series stay byte-identical to uninterrupted ones)
            "sanitize_backlog_us": self._sanitize_backlog_us,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.assert_quiescent()
        if len(state["servers"]) != len(self.servers):
            raise ValueError("engine checkpoint does not match topology")
        self.clock.now_us = state["clock_us"]
        self._event_seq = state["heap_seq"]
        self._events_pushed = state["heap_pushed"]
        self._seq = state["seq"]
        self._next_index = state["next_index"]
        self._arrival_time_us = state["arrival_time_us"]
        self.completed = state["completed"]
        self.queued_segments_peak = state["queued_segments_peak"]
        self.deferred_lock_pulses = state["deferred_lock_pulses"]
        self.lock_drains = state["lock_drains"]
        self.suspensions = state["suspensions"]
        for server, payload in zip(self.servers, state["servers"]):
            server.busy_us = payload["busy_us"]
            server.token = payload["token"]
        self.latency.load_state_dict(state["latency"])
        self.depth.load_state_dict(state["depth"])
        self.arrivals.load_state_dict(state["arrivals"])
        self.sanitize_backlog.load_state_dict(state["sanitize_backlog"])
        self._sanitize_backlog_us = state["sanitize_backlog_us"]

    # ------------------------------------------------------------------
    def _report(self) -> EngineReport:
        elapsed = self.clock.now_us
        utilization = {
            server.key: (server.busy_us / elapsed if elapsed > 0.0 else 0.0)
            for server in self.servers
        }
        checker = self.ssd.ftl.checker
        checker_summary: dict[str, int] = {}
        if checker is not None:
            checker_summary = dict(checker.summary())
            # a violation raises InvariantViolation and aborts the run,
            # so reaching the report means the sanitizer saw none.
            checker_summary["violations"] = 0
        return EngineReport(
            completed=self.completed,
            sim_elapsed_us=elapsed,
            open_loop_elapsed_us=self.timing.elapsed_us,
            events=self._events_pushed,
            latency=self.latency.summary(),
            utilization=utilization,
            queue_depth=self.depth.downsample(),
            in_flight_peak=self.depth.peak,
            mean_in_flight=self.depth.mean_level(elapsed),
            queued_segments_peak=self.queued_segments_peak,
            deferred_lock_pulses=self.deferred_lock_pulses,
            lock_drains=self.lock_drains,
            suspensions=self.suspensions,
            checker=checker_summary,
            sanitize_backlog=self.sanitize_backlog.downsample(),
            sanitize_backlog_peak_us=self.sanitize_backlog.peak,
            sanitize_backlog_mean_us=self.sanitize_backlog.mean_level(elapsed),
        )
