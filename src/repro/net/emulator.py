"""Bandwidth schedule combinators for experiment design.

The paper's network emulator replays traces and crafts bandwidth
profiles ("carefully designing the bandwidth profile, we are able to
force players to react").  These combinators make such crafting
compositional: scale a trace, concatenate phases, add seeded jitter,
or clamp into a range.  Each combinator keeps the
:class:`~repro.net.schedule.BandwidthSchedule` contract: its
``next_change_at`` is never later than the first time its rate moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.net.schedule import BandwidthSchedule
from repro.util import DeterministicRng, check_non_negative, check_positive


@dataclass(frozen=True)
class ScaledSchedule:
    """Multiply another schedule by a constant factor."""

    inner: BandwidthSchedule
    factor: float

    def __post_init__(self) -> None:
        check_positive("factor", self.factor)

    def bandwidth_at(self, time_s: float) -> float:
        return self.inner.bandwidth_at(time_s) * self.factor

    def next_change_at(self, time_s: float) -> float:
        return self.inner.next_change_at(time_s)


@dataclass(frozen=True)
class ClampedSchedule:
    """Clamp another schedule into ``[floor_bps, ceiling_bps]``."""

    inner: BandwidthSchedule
    floor_bps: float
    ceiling_bps: float

    def __post_init__(self) -> None:
        check_non_negative("floor_bps", self.floor_bps)
        if self.ceiling_bps < self.floor_bps:
            raise ValueError("ceiling must be >= floor")

    def bandwidth_at(self, time_s: float) -> float:
        return min(max(self.inner.bandwidth_at(time_s), self.floor_bps),
                   self.ceiling_bps)

    def next_change_at(self, time_s: float) -> float:
        return self.inner.next_change_at(time_s)


class ConcatSchedule:
    """Play schedules back to back, each for a fixed duration.

    The last phase extends indefinitely.
    """

    def __init__(self, phases: list[tuple[BandwidthSchedule, float]]):
        if not phases:
            raise ValueError("need at least one phase")
        for _, duration in phases:
            check_positive("phase duration", duration)
        self.phases = list(phases)

    def bandwidth_at(self, time_s: float) -> float:
        check_non_negative("time_s", time_s)
        offset = 0.0
        for schedule, duration in self.phases[:-1]:
            if time_s < offset + duration:
                return schedule.bandwidth_at(time_s - offset)
            offset += duration
        last_schedule, _ = self.phases[-1]
        return last_schedule.bandwidth_at(time_s - offset)

    def next_change_at(self, time_s: float) -> float:
        """The earlier of the current phase's end and its own next change.

        Phase ends are the float sums :meth:`bandwidth_at` compares
        against.  The inner answer is shifted by the phase offset and
        stepped back past any rounding that would make it late.
        """
        offset = 0.0
        for schedule, duration in self.phases[:-1]:
            end = offset + duration
            if time_s < end:
                return min(end, _shifted_change(schedule, time_s, offset))
            offset = end
        return _shifted_change(self.phases[-1][0], time_s, offset)


class JitteredSchedule:
    """Seeded multiplicative per-second jitter on top of a schedule."""

    def __init__(self, inner: BandwidthSchedule, *, sigma: float = 0.1,
                 seed: int = 7, horizon_s: int = 3600):
        check_positive("horizon_s", horizon_s)
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        self.inner = inner
        rng = DeterministicRng(seed)
        self._factors = [
            rng.truncated_gauss(1.0, sigma, max(1.0 - 3 * sigma, 0.05),
                                1.0 + 3 * sigma)
            for _ in range(horizon_s)
        ]

    def bandwidth_at(self, time_s: float) -> float:
        factor = self._factors[int(time_s) % len(self._factors)]
        return self.inner.bandwidth_at(time_s) * factor

    def next_change_at(self, time_s: float) -> float:
        # The factor is drawn per whole second.
        return min(self.inner.next_change_at(time_s), math.floor(time_s) + 1)


def _shifted_change(
    inner: BandwidthSchedule, time_s: float, offset: float
) -> float:
    """``offset + inner.next_change_at(time_s - offset)``, never late.

    The phase reads ``inner`` at ``t - offset``; the sum can round one
    ulp past the first ``t`` whose difference reaches the inner change,
    so step back while the time just before it already does.
    """
    change = inner.next_change_at(time_s - offset)
    at = offset + change
    while at > time_s:
        before = math.nextafter(at, -math.inf)
        if before - offset < change:
            break
        at = before
    return at
