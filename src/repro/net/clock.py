"""Simulation clock and the shared tick timeline.

Time moves in steps of ``dt``, and every step lands on
``round(previous + dt, 9)``: the rounding keeps long runs on decimal
instants, and it is why a closed-form ``origin + k * dt`` would land on
other floats.  This module is the rule's only owner.  :func:`tick_chunk`
applies it once per instant and memoises the result, so every session
with the same ``dt`` and origin reads the same instants; the clock and
the batched replays (``Network.advance_many``,
``Player.apply_noop_ticks``) look instants up instead of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.util import check_positive

#: Instants per timeline chunk.
CHUNK_TICKS = 256
#: Chunks the timeline memo keeps: 128 x 256 instants cover a 3,276-s
#: session at dt 0.1 (a 600-s one reads 24 chunks), about 1 MB at most.
TIMELINE_MEMO_CHUNKS = 128


@lru_cache(maxsize=TIMELINE_MEMO_CHUNKS, typed=True)
def tick_chunk(dt: float, origin: float) -> tuple[float, ...]:
    """The :data:`CHUNK_TICKS` instants the steps after ``origin`` land on.

    The chunk after this one is ``tick_chunk(dt, chunk[-1])``.  Sharing
    one tuple across sessions and threads is safe: it is immutable.
    ``origin`` itself is not in the chunk, so ``-0.0`` and ``0.0``, the
    only equal floats with different bits, may share an entry.
    """
    instants = []
    t = origin
    for _ in range(CHUNK_TICKS):
        t = round(t + dt, 9)
        instants.append(t)
    return tuple(instants)


@dataclass
class Clock:
    """Discrete simulation time.

    ``now`` only moves forward via :meth:`tick` and :meth:`advance`, in
    steps of ``dt`` seconds.  All components read the same clock so
    there is a single notion of time per session.  The start time is
    the timeline's origin.
    """

    dt: float = 0.1
    now: float = 0.0

    def __post_init__(self) -> None:
        check_positive("dt", self.dt)
        self._rebase()

    def _rebase(self) -> None:
        # The cursor: ``now`` is ``_chunk[_taken - 1]``, or the origin
        # ``_chunk`` was keyed by when ``_taken`` is 0.  ``_at`` is the
        # ``now`` the cursor was taken at.
        self._chunk = tick_chunk(self.dt, self.now)
        self._taken = 0
        self._at = self.now

    def _seek(self, ticks: int) -> tuple[tuple[float, ...], int]:
        """The cursor ``ticks`` steps ahead, one memo hit per chunk."""
        if self.now is not self._at:
            self._rebase()  # ``now`` was set from outside: a new origin
        chunk = self._chunk
        taken = self._taken + ticks
        while taken > CHUNK_TICKS:
            chunk = tick_chunk(self.dt, chunk[-1])
            taken -= CHUNK_TICKS
        return chunk, taken

    def tick(self) -> float:
        """Advance one step and return the new time."""
        return self.advance(1)

    def advance(self, ticks: int) -> float:
        """Advance ``ticks`` steps and return the new time.

        Lands on the same float as ``ticks`` calls to :meth:`tick`, at
        O(1) per timeline chunk crossed.
        """
        if ticks < 0:
            raise ValueError(f"ticks must be >= 0, got {ticks}")
        if ticks:
            chunk, taken = self._seek(ticks)
            self._chunk = chunk
            self._taken = taken
            self.now = self._at = chunk[taken - 1]
        return self.now

    def ahead(self, ticks: int) -> float:
        """The time ``ticks`` steps after ``now``; the clock stays put."""
        if not ticks:
            return self.now
        chunk, taken = self._seek(ticks)
        return chunk[taken - 1]

    def starts(self, ticks: int) -> list[float]:
        """The start times of the next ``ticks`` ticks, ``now`` first;
        the clock stays put."""
        if ticks <= 0:
            return []
        chunk, taken = self._seek(0)
        instants = [self.now]
        end = taken + ticks - 1
        while end > CHUNK_TICKS:
            instants += chunk[taken:]
            chunk = tick_chunk(self.dt, chunk[-1])
            end -= CHUNK_TICKS
            taken = 0
        instants += chunk[taken:end]
        return instants
