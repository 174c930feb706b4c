"""Reference model for the differential test: the in-order segment path.

A verbatim copy of the engine's former in-order mode, which ran every
traced or open-loop ``fifo`` engine through one :class:`Segment` and one
DONE event per stage: the second stage of a two-stage op was queued at
dispatch, *unready*, and an unready head-of-queue segment stalled its
server; FIFO-family servers kept their queues as deques.  It is kept
only as the oracle ``test_calendar.py`` compares the calendar dispatch
(``QueueingEngine._dispatch_calendar``) against.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.sim.engine import _EV_DONE, QueueingEngine, _DrainBatch, _InFlight
from repro.sim.ops import OpKind
from repro.sim.policies import DeferLocksPolicy, SchedulingPolicy


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

    @property
    def idle(self) -> bool:
        return self.current is None and not self.queue


class LegacyInOrderEngine(QueueingEngine):
    """The engine with every policy, ``fifo`` included, on the segment path."""

    def __init__(self, ssd, requests, arrivals, policy, steady_start=0) -> None:
        super().__init__(ssd, requests, arrivals, policy, steady_start)
        self._calendar = False
        # a policy that never overrides priority() (FIFO family) and
        # never preempts keeps heap order exactly submission order: server
        # queues become deques (see Server)
        self._fifo_queues: bool = (
            type(policy).priority is SchedulingPolicy.priority
            and not policy.preemptive
        )
        timing = self.timing
        n_chips = timing.n_chips
        fifo = self._fifo_queues
        self.servers: list[Server] = [
            Server(f"chip{i}", chip_id=i, fifo=fifo) for i in range(n_chips)
        ] + [
            Server(f"chan{j}", chip_id=None, fifo=fifo)
            for j in range(timing.n_channels)
        ]

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
