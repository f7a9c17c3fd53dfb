"""Event-driven simulation core: advance the clock event to event.

The tick engine (:class:`~repro.core.session.Session`) discovers what
happens next by scanning: every serial tick runs the full network →
RRC → player pipeline just to find out whether anything changed.  This
module inverts the control flow: producers *push* their next event
into an :class:`EventQueue` and :class:`EventDrivenSession` advances
the clock from event to event, executing a serial tick only at event
instants.  It is the default engine; the tick loop runs only when a
spec names ``engine="tick"``.

Byte-identity is non-negotiable (the tick engine stays the oracle), and
it pins the design:

* The serial loop accumulates floats per tick (``pos += dt``,
  ``delivered_bytes += rate * dt / 8``, ``round(t + dt, 9)``), so a
  closed-form jump would land on different ulps.  Batched windows are
  therefore *replayed* through the proven per-tick primitives —
  ``Network.advance_many`` (the download micro-loop) and
  ``Player.apply_noop_ticks`` — which execute the identical arithmetic
  without any per-tick *decision* logic.
* Event instants are executed as one full serial tick through exactly
  the oracle's code path, so everything observable (completions, state
  transitions, trace spans, QoE) is produced by the same code in both
  engines.
* Dispatch classification is post-hoc (it reads cheap deltas after the
  tick), so it cannot perturb the simulation.

Each producer owns its deadline (phase 2 of the engine):

* **Player**: one ``PLAYER_WAKE`` per session, the minimum over the
  margin contracts (ABR drain thresholds, rebuffer/resume flips, retry
  backoffs, the render limit).  The deadline is *absolute* and stays
  valid until the next dispatched tick — mode and margins can only
  change when a serial tick runs — so it is recomputed once per
  dispatch and re-pushed only when it actually moved.  Batch rounds in
  between re-derive nothing.
* **Fault plane**: static ``FAULT_CHANGE`` entries for dead-air
  boundaries and reset times, registered up front.

A window ends only where the simulation must react (DESIGN.md §4n).
Segment starts and capacity steps are not reactions: the player's
no-op replay emits ``SegmentPlayStarted`` on the tick that crosses a
segment boundary, and ``Network.advance_many`` re-reads the schedule
on the tick that reaches a change point.  Transfer completions need no
queue entry either: ``advance_many`` reports *why* it stopped
(completion / fault / horizon), and a ``completion`` stop is a promise
that the very next tick completes a transfer, so the loop dispatches it
immediately instead of paying a second ``advance_many`` probe that
would return 0 — and instead of re-deriving player margins that cannot
have changed.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from time import perf_counter

from repro.core.session import Session, SessionResult
from repro.net.network import (
    ADVANCE_COMPLETION,
    ADVANCE_FAULT,
)
from repro.obs import EventJump
from repro.player.events import SegmentPlayStarted
from repro.player.player import PlayerState


class EventType(enum.Enum):
    """What a queued event announces.

    Coarser than the dispatch classification on purpose: the queue
    schedules *when* the engine must look, the post-hoc classifier
    records *what it found*.  ABR/replacement wakes, rebuffer/render
    deadlines and retry-backoff expiries all surface as the player's
    single ``PLAYER_WAKE`` (the minimum over its margin contracts).
    Transfer completions, segment starts, capacity steps and RRC timers
    need no events at all: ``advance_many``'s stop reason announces a
    completion, and the rest are replayed per tick inside every batched
    window.
    """

    PLAYER_WAKE = "player_wake"
    FAULT_CHANGE = "fault_change"
    # A fleet client's arrival or departure instant (static, registered
    # up front like FAULT_CHANGE): batched windows clamp before it so
    # activation and retirement always happen on a dispatched tick.
    CLIENT_CHURN = "client_churn"


class Event:
    """One queue entry.  Identity-compared; ``cancel`` is lazy."""

    __slots__ = ("time", "type", "payload", "priority", "seq", "cancelled")

    def __init__(self, time, type, payload=None, priority=0, seq=0):
        self.time = time
        self.type = type
        self.payload = payload
        self.priority = priority
        self.seq = seq
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, {self.type.value}, seq={self.seq}{flag})"


class EventQueue:
    """A deterministic min-heap of typed events.

    Ordering is total and stable: ``(time, priority, seq)``, where
    ``seq`` is the registration order — two events at the same instant
    always pop in the order they were pushed, on every platform and
    every run.  Cancellation is lazy (the heap entry is tombstoned and
    skimmed on the next peek/pop), so ``cancel`` is O(1) and a
    cancel + re-register cycle never loses or duplicates live events.
    Tombstones cannot pile up: when dead entries outnumber live ones
    (beyond a small floor) the heap is compacted in one pass, so the
    heap stays O(live) under producer cancel/re-push churn.
    """

    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0
        self.pushed_total = 0
        self.cancelled_total = 0

    def __len__(self) -> int:
        """Number of live (un-cancelled, un-popped) events."""
        return self._live

    def push(
        self,
        time: float,
        type: EventType,
        payload: object = None,
        priority: int = 0,
    ) -> Event:
        event = Event(time, type, payload, priority, next(self._seq))
        heapq.heappush(self._heap, (time, priority, event.seq, event))
        self._live += 1
        self.pushed_total += 1
        return event

    def cancel(self, event: Event) -> None:
        """Tombstone ``event``; idempotent, no-op if already popped.

        Counted in ``cancelled_total`` (explicit producer cancels only,
        not pops).  Triggers a compaction when tombstones dominate.
        """
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1
            self.cancelled_total += 1
            heap = self._heap
            if len(heap) >= self._COMPACT_MIN and len(heap) > 2 * self._live:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live entries only.

        The entries are total-ordered tuples, so heapify reproduces the
        exact pop order the skimmed heap would have produced.
        """
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)

    def _skim(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)

    def peek(self) -> Event | None:
        self._skim()
        return self._heap[0][3] if self._heap else None

    def next_time(self) -> float:
        head = self.peek()
        return head.time if head is not None else math.inf

    def pop(self) -> Event | None:
        self._skim()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)[3]
        # Popping consumes the live entry; mark it so a later cancel()
        # of a stale handle cannot corrupt the live count.
        event.cancelled = True
        self._live -= 1
        # Pops shrink the live count without skimming mid-heap
        # tombstones, so the dominance bound must be re-checked here
        # too, not just on cancel.
        heap = self._heap
        if len(heap) >= self._COMPACT_MIN and len(heap) > 2 * self._live:
            self._compact()
        return event

    def pop_due(self, time: float) -> list[Event]:
        """Pop every live event with ``event.time <= time``, in order."""
        due: list[Event] = []
        while True:
            head = self.peek()
            if head is None or head.time > time:
                return due
            due.append(self.pop())


class EventLoopCore:
    """Queue plumbing shared by the single- and multi-session loops.

    Requires the host to provide ``clock``, ``network``, ``queue`` and
    ``max_queue_depth``.  Keeping one implementation of fault
    registration is part of the byte-identity argument: both engines
    batch under exactly the same event semantics.
    """

    def _register_fault_events(self) -> None:
        """Static producers: the fault plane's change points, up front.

        Dead-air boundaries and reset times are known at construction;
        each becomes one queue entry.  Schedule change points are *not*
        events: ``advance_many`` re-reads the capacity on the tick that
        reaches one, and idle windows do not depend on capacity at all.
        """
        faults = self.network.faults
        if faults is None:
            return
        for window in faults.dead_air:
            self.queue.push(
                window.start_s, EventType.FAULT_CHANGE, "dead_air_start"
            )
            self.queue.push(window.end_s, EventType.FAULT_CHANGE, "dead_air_end")
        for at in faults.reset_times:
            self.queue.push(at, EventType.FAULT_CHANGE, "reset")
        self.max_queue_depth = len(self.queue)

    def _note_depth(self) -> None:
        depth = len(self.queue)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth


class EventDrivenSession(EventLoopCore, Session):
    """A :class:`Session` that advances the clock event to event.

    Same constructor, same :meth:`_finish`, same result types; only the
    main loop differs.  Its accounting lands in the base session's
    counters (``ticks_executed`` = dispatched event ticks,
    ``fast_forwarded_ticks`` / ``transfer_fast_forwarded_ticks`` =
    batched idle / transfer ticks), so
    :class:`~repro.core.parallel.TickStats` and its ``ticks_simulated``
    invariant hold on both engines.
    """

    engine = "event"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queue = EventQueue()
        self.events_dispatched = 0
        self.dispatch_counts: dict[str, int] = {}
        self.advance_stop_counts: dict[str, int] = {}
        self.max_queue_depth = 0
        self._wake_handle: Event | None = None
        self._wake_layer = "stalled"
        self._completion_due = False
        self._limit = 0.0

    # -- main loop ---------------------------------------------------------

    def run(self, duration_s: float) -> SessionResult:
        profiler = self.obs.profiler
        t0 = perf_counter() if profiler is not None else 0.0
        dt = self.clock.dt
        limit = duration_s - 1e-9
        self._limit = limit
        self._register_fault_events()
        self._reschedule_wake()
        player = self.player
        clock = self.clock
        while clock.now < limit:
            if player.ended and not player.scheduler.busy:
                break
            if self._completion_due:
                # advance_many promised the next tick completes a
                # transfer: dispatch it straight away — no queue scan,
                # no margin recompute, no wasted 0-tick probe.
                self._completion_due = False
                self._dispatch_event_tick(dt)
                self._after_dispatch()
                continue
            now = clock.now
            next_t = self.queue.next_time()
            if next_t <= now + 1e-9:
                self._dispatch_event_tick(dt)
                self._after_dispatch()
                continue
            self._batch_to(min(next_t, limit), limit, dt)
        if profiler is not None:
            profiler.add("event_loop", perf_counter() - t0, 1)
        return self._finish()

    def _batch_to(self, target: float, limit: float, dt: float) -> None:
        """Replay the certified no-op window ending at ``target``.

        The window covers every tick that starts before ``target``
        (the same ``int(...)`` truncation as the margin contracts).
        Nothing is re-derived per round: the player wake is an
        absolute deadline, valid until the next dispatch, and fault
        change points are queue entries, so ``target`` already stops
        short of them.
        """
        clock = self.clock
        now = clock.now
        # The cap includes the final tick: the oracle executes ticks
        # while now < limit, so the last window may batch straight
        # through to the end instead of dispatching one (usually
        # no-op) serial tick per session.
        remaining = int((limit - now) / dt) + 1
        ticks = int((target - now - 1e-9) / dt) + 1
        if ticks > remaining:
            ticks = remaining
        if ticks < 1:
            self._dispatch_event_tick(dt)
            self._after_dispatch()
            return
        network = self.network
        player = self.player
        if network.steady_for_batching():
            executed, activity, reason = network.advance_many(ticks, dt)
            counts = self.advance_stop_counts
            counts[reason] = counts.get(reason, 0) + 1
            if reason == ADVANCE_COMPLETION:
                self._completion_due = True
            if executed <= 0:
                # A completion or fault is due on this very tick.
                self._completion_due = False
                self._dispatch_event_tick(dt)
                self._after_dispatch()
                return
            player.apply_noop_ticks(executed, dt)
            self.rrc.observe_many(activity, dt)
            clock.advance(executed)
            self.transfer_fast_forwarded_ticks += executed
            self.transfer_fast_forward_jumps += 1
            self._emit_jump(now, "transfer", executed, reason)
            return
        if player.scheduler.busy:
            # Jobs in flight with no live transfer: no contract covers
            # this edge, so the tick runs serially.
            self._dispatch_event_tick(dt)
            self._after_dispatch()
            return
        # With no transfer anywhere the link moves no bytes and
        # connection control is a no-op (the idle-jump argument,
        # DESIGN.md §4a): replay player no-ops, RRC idle observations
        # and clock ticks, skip network.advance entirely.
        player.apply_noop_ticks(ticks, dt)
        self.rrc.observe_many(itertools.repeat(False, ticks), dt)
        clock.advance(ticks)
        self.fast_forwarded_ticks += ticks
        self.fast_forward_jumps += 1
        self._emit_jump(now, self._wake_layer, ticks, "player_wake")

    # -- producers ---------------------------------------------------------

    def _after_dispatch(self) -> None:
        """Refresh producer-owned deadlines after a serial tick.

        Only a dispatched tick can change the player's mode or margins
        or start/finish jobs, so this is the single point where the
        producer reconsiders — batch rounds re-derive nothing.
        """
        player = self.player
        if player.ended and not player.scheduler.busy:
            return  # the loop is about to break
        self._reschedule_wake()

    def _reschedule_wake(self) -> None:
        """Recompute the player's absolute deadline; re-push iff moved.

        The margin contracts return provable no-op tick counts from
        *now*; converted to an absolute instant the deadline stays
        valid across batch rounds because mode (transfer/idle/stalled)
        and margin premises can only change at a dispatched tick.  When
        the recomputed deadline equals the live wake's, the old entry
        is kept — that is what drops queue pushes below one per
        dispatch on completion-heavy runs.
        """
        player = self.player
        clock = self.clock
        now = clock.now
        dt = clock.dt
        remaining = int((self._limit - now) / dt) + 1
        if remaining < 1:
            remaining = 1
        if self.network.steady_for_batching():
            ticks = player.transfer_noop_ticks(dt, remaining)
            self._wake_layer = "transfer"
        elif player.scheduler.busy:
            ticks = 0  # no contract for busy-without-transfer: serial
            self._wake_layer = "serial"
        elif player.state is PlayerState.PLAYING:
            ticks = player.idle_noop_ticks(dt, remaining)
            self._wake_layer = "idle"
        else:
            ticks = player.stalled_noop_ticks(dt, remaining)
            self._wake_layer = "stalled"
        deadline = now + ticks * dt
        handle = self._wake_handle
        if (
            handle is not None
            and not handle.cancelled
            and abs(handle.time - deadline) <= 1e-9
        ):
            return  # the player's own state did not move its deadline
        if handle is not None:
            self.queue.cancel(handle)
        self._wake_handle = self.queue.push(deadline, EventType.PLAYER_WAKE)
        self._note_depth()

    def _emit_jump(
        self, start: float, layer: str, ticks: int, bound: str
    ) -> None:
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.emit(
                EventJump(
                    at=start,
                    layer=layer,
                    ticks=ticks,
                    end_s=self.clock.now,
                    next_event=bound,
                )
            )

    # -- event dispatch ----------------------------------------------------

    def _dispatch_event_tick(self, dt: float) -> None:
        """Execute one event instant as a full serial tick and label it.

        The tick body is byte-for-byte the oracle loop's; everything
        around it only *reads* state (queue pops happen before the tick
        but fault evaluation inside ``network.advance`` re-derives
        faults from time, never from the queue).
        """
        player = self.player
        scheduler = player.scheduler
        tick_start = self.clock.now
        due = self.queue.pop_due(tick_start + 1e-9)
        before_completed = scheduler.completed_parts
        before_inflight = scheduler.inflight()
        before_events = len(player.events.events)
        before_state = player.state
        before_paused = player.pause_state()
        before_bytes = self.network.link.total_bytes_delivered
        self.network.advance(dt)
        radio_active = self.network.link.total_bytes_delivered > before_bytes
        self.rrc.observe(radio_active, dt)
        player.advance(dt)
        self.clock.tick()
        self.ticks_executed += 1
        self.events_dispatched += 1
        kind = self._classify_dispatch(
            due,
            before_completed,
            before_inflight,
            before_events,
            before_state,
            before_paused,
        )
        self.dispatch_counts[kind] = self.dispatch_counts.get(kind, 0) + 1

    def _classify_dispatch(
        self,
        due: list[Event],
        before_completed: int,
        before_inflight: int,
        before_events: int,
        before_state: PlayerState,
        before_paused: tuple[bool, bool],
    ) -> str:
        """Name what the dispatched tick actually did (post-hoc).

        Priority order matters only for the label (a reset both fires a
        fault and completes jobs as failures; the fault is the cause).
        Completion is counted at the wire level (``completed_parts``),
        so a split job's intermediate byte-range parts label their
        ticks too.  ``noop`` is the honest residue — ticks the engine
        executed without a state change to show for them (conservative
        margins); BENCH_event.json tracks them as the engine's blind
        steps.
        """
        player = self.player
        scheduler = player.scheduler
        if any(event.type is EventType.FAULT_CHANGE for event in due):
            return "fault_change"
        if scheduler.completed_parts > before_completed:
            return "transfer_complete"
        if scheduler.inflight() > before_inflight:
            return "fetch_submitted"
        if player.state is not before_state:
            return "state_transition"
        events = player.events.events
        if len(events) > before_events:
            if isinstance(events[before_events], SegmentPlayStarted):
                return "segment_boundary"
            return "player_event"
        if player.pause_state() != before_paused:
            return "pause_flip"
        return "noop"

    # -- observability -----------------------------------------------------

    def _record_metrics(self) -> None:
        """Per-event-type dispatch counts and queue stats, on top of the
        base session counters.  All pure functions of the RunSpec (the
        sweep-aggregation contract): the queue's content is fully
        determined by the spec's faults and the deterministic producers.
        """
        super()._record_metrics()
        metrics = self.obs.metrics
        metrics.counter("session.dispatches").inc(self.events_dispatched)
        for kind in sorted(self.dispatch_counts):
            metrics.counter("session.events", type=kind).inc(
                self.dispatch_counts[kind]
            )
        metrics.counter("session.queue_pushes").inc(self.queue.pushed_total)
        metrics.counter("session.queue_cancelled").inc(
            self.queue.cancelled_total
        )
        metrics.gauge("session.queue_depth_max").set(self.max_queue_depth)
        for reason in sorted(self.advance_stop_counts):
            metrics.counter("session.advance_stops", reason=reason).inc(
                self.advance_stop_counts[reason]
            )


# Re-exported for the multi-session event loop (core.multi imports the
# queue machinery from here; keeping one queue implementation is part
# of the byte-identity argument).
__all__ = [
    "ADVANCE_COMPLETION",
    "ADVANCE_FAULT",
    "Event",
    "EventDrivenSession",
    "EventLoopCore",
    "EventQueue",
    "EventType",
]
