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
from typing import Optional

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
    the timeline's origin.  ``ticks`` counts the steps taken: tick ``i``
    starts at the instant ``i`` steps reach, and :meth:`starts` reads
    those instants back for ticks already taken too, which is how a
    player the event loop left behind replays the ticks it sat out
    (``Player.catch_up``).
    """

    dt: float = 0.1
    now: float = 0.0

    def __post_init__(self) -> None:
        check_positive("dt", self.dt)
        self.ticks = 0
        self._rebase()

    def _rebase(self) -> None:
        # The timeline from ``now``: ``_chunks[j]`` holds the instants
        # steps ``j * CHUNK_TICKS + 1`` to ``(j + 1) * CHUNK_TICKS``
        # after the origin reach, and ``_first`` is the tick count at the
        # origin.  ``_at`` is the ``now`` the timeline last set.
        self._origin = self._at = self.now
        self._first = self.ticks
        self._chunks = [tick_chunk(self.dt, self.now)]

    def _step(self, ticks: int) -> int:
        """Steps from the origin to tick ``self.ticks + ticks``'s start."""
        if self.now is not self._at:
            self._rebase()  # ``now`` was set from outside: a new origin
        return self.ticks - self._first + ticks

    def _instant(self, step: int) -> float:
        """The instant ``step`` steps after the origin, one memo hit per
        chunk the timeline grows by."""
        if not step:
            return self._origin
        chunk, offset = divmod(step - 1, CHUNK_TICKS)
        chunks = self._chunks
        while chunk >= len(chunks):
            chunks.append(tick_chunk(self.dt, chunks[-1][-1]))
        return chunks[chunk][offset]

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
            step = self._step(ticks)
            self.ticks += ticks
            self.now = self._at = self._instant(step)
        return self.now

    def ahead(self, ticks: int) -> float:
        """The time ``ticks`` steps after ``now``; the clock stays put."""
        if not ticks:
            return self.now
        return self._instant(self._step(ticks))

    def starts(self, ticks: int, first: Optional[int] = None) -> list[float]:
        """The start times of ``ticks`` ticks from tick ``first`` (by
        default the one starting ``now``); the clock stays put.

        Ticks already taken are read back from the timeline, as far back
        as its origin: setting ``now`` from outside starts a new one.
        """
        if ticks <= 0:
            return []
        step = self._step(0 if first is None else first - self.ticks)
        if step < 0:
            raise ValueError(f"tick {first} is before the timeline's origin")
        # Flat indexes into the chunks; -1 is the origin.
        low = step - 1
        high = low + ticks
        instants = []
        if low < 0:
            instants.append(self._origin)
            low = 0
        self._instant(high)
        chunks = self._chunks
        while low < high:
            chunk, offset = divmod(low, CHUNK_TICKS)
            end = min(offset + high - low, CHUNK_TICKS)
            instants += chunks[chunk][offset:end]
            low += end - offset
        return instants
