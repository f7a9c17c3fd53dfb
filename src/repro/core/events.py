"""Event-driven simulation core: a single session on the event loop.

The tick oracle discovers what happens next by scanning: every serial
tick runs the full network → RRC → player pipeline just to find out
whether anything changed.  The event loop inverts the control flow:
producers *push* their next event into an :class:`EventQueue` and the
loop advances the clock from event to event, executing a serial tick
only at event instants.  It is the default engine; the tick loop runs
only when a spec names ``engine="tick"``.

There is one event loop, :class:`~repro.core.multi.EventDrivenMultiSession`,
and a single session is its one-client case (DESIGN.md §4q):
:class:`EventDrivenSession` combines the session's radio, probe extras,
end rule and result (:class:`~repro.core.session.Session`) with that
loop.  Each producer owns its deadline:

* **Player**: one ``PLAYER_WAKE`` per client, the minimum over the
  margin contracts (ABR drain thresholds, rebuffer/resume flips, retry
  backoffs, the render limit).  The deadline is *absolute* and stays
  valid until the client's next full tick — mode and margins can only
  change then — so it is recomputed at most once per dispatch and
  re-pushed only when it actually moved.  Batch rounds in between
  re-derive nothing.
* **Fault plane**: static ``FAULT_CHANGE`` entries for dead-air
  boundaries and reset times, registered up front.

The queue itself lives in :mod:`repro.core.event_queue` and is
re-exported here.
"""

from __future__ import annotations

from repro.core.event_queue import Event, EventQueue, EventType
from repro.core.multi import EventDrivenMultiSession
from repro.core.session import Session, SessionResult


class EventDrivenSession(Session, EventDrivenMultiSession):
    """A :class:`Session` that advances the clock event to event.

    Same constructor, same result types, same tick counters; the loop is
    the cell's, whose one client is this session's player.
    """

    def run(self, duration_s: float) -> SessionResult:
        # Defined on this class, not inherited: the benchmark's tracer
        # times EventDrivenSession.run and EventDrivenMultiSession.run
        # as two layers, single sessions apart from shared cells.
        return self._run_events(duration_s)


# The queue's names stay importable from here, where the engine's
# callers and the benchmark's ``events.queue`` layer look for them.
__all__ = [
    "Event",
    "EventDrivenSession",
    "EventQueue",
    "EventType",
]
