"""Simulation clock."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import check_positive


@dataclass
class Clock:
    """Discrete simulation time.

    ``now`` only moves forward via :meth:`tick` and :meth:`advance`, in
    steps of ``dt`` seconds.  All components read the same clock so
    there is a single notion of time per session.
    """

    dt: float = 0.1
    now: float = 0.0

    def __post_init__(self) -> None:
        check_positive("dt", self.dt)

    def tick(self) -> float:
        """Advance one step and return the new time."""
        return self.advance(1)

    def advance(self, ticks: int) -> float:
        """Advance ``ticks`` steps and return the new time.

        Each step rounds on its own (``round(now + dt, 9)``), so time
        lands on the same float as stepping one tick per call; only the
        attribute traffic is per call.
        """
        now = self.now
        dt = self.dt
        for _ in range(ticks):
            now = round(now + dt, 9)
        self.now = now
        return now
