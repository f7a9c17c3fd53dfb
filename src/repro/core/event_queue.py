"""The event queue the simulation's event loop runs on.

Producers push their next instant here (a player's wake, a fault
change point, a client's arrival or departure) and the event loop in
:mod:`repro.core.multi` advances the clock from one to the next.  The
queue knows nothing of sessions, so it sits in its own module:
:mod:`repro.core.events`, which re-exports it, builds on the session
and the cell, and the cell's loop could not import it from there
without an import cycle.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math


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
