"""UI monitor: QoE facts from 1 Hz seekbar updates (section 2.4).

All studied apps update their seekbar via ``ProgressBar.setProgress``
at least every second; hooking that call yields (time, position)
samples.  From those alone the monitor extracts playback progress,
startup delay and stall intervals — it never touches player internals.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.player.events import ProgressSample
from repro.util import non_decreasing


@dataclass(frozen=True)
class StallInterval:
    start_at: float
    end_at: float
    position_s: float

    @property
    def duration_s(self) -> float:
        return self.end_at - self.start_at


class UiMonitor:
    """Interprets the sequence of seekbar updates."""

    def __init__(self, samples: list[ProgressSample]):
        self.samples = sorted(samples, key=lambda sample: sample.at)
        self._times = [sample.at for sample in self.samples]
        positions = [sample.position_s for sample in self.samples]
        # Bisectable only while the seekbar never moves backwards (no
        # backward seek).
        self._positions = positions if non_decreasing(positions) else None

    # -- playback progress ---------------------------------------------------

    def position_at(self, t: float) -> float:
        """Seekbar position at time ``t`` (last update wins)."""
        if not self.samples:
            return 0.0
        i = bisect.bisect_right(self._times, t + 1e-9) - 1
        if i < 0:
            return 0.0
        return self.samples[i].position_s

    def final_position_s(self) -> float:
        if not self.samples:
            return 0.0
        return self.samples[-1].position_s

    def time_position_crossed(self, position_s: float) -> float | None:
        """First sample time at which the seekbar reached ``position_s``."""
        positions = self._positions
        if positions is not None:
            target = position_s - 1e-9
            i = bisect.bisect_left(positions, target)
            if i < len(positions) and positions[i] >= target:
                return self.samples[i].at
            return None
        for sample in self.samples:
            if sample.position_s >= position_s - 1e-9:
                return sample.at
        return None

    # -- startup delay ------------------------------------------------------------

    def startup_delay_s(self) -> float | None:
        """Time of the first sample showing forward progress."""
        for sample in self.samples:
            if sample.position_s > 1e-9:
                return sample.at
        return None

    # -- stalls ----------------------------------------------------------------------

    def stall_intervals(self, *, min_duration_s: float = 1.5) -> list[StallInterval]:
        """Intervals after startup during which the position froze.

        ``min_duration_s`` filters single-sample jitter: at 1 Hz
        granularity a frozen reading must persist beyond one sampling
        interval to count as a stall, as in the paper's methodology.
        The trailing freeze at end-of-content is excluded (the seekbar
        legitimately stops there).
        """
        started = self.startup_delay_s()
        if started is None:
            return []
        intervals: list[StallInterval] = []
        freeze_start: float | None = None
        last = None
        for sample in self.samples:
            if sample.at < started:
                last = sample
                continue
            if last is not None and abs(sample.position_s - last.position_s) < 1e-6:
                if freeze_start is None:
                    freeze_start = last.at
            else:
                if freeze_start is not None:
                    duration = last.at - freeze_start if last else 0.0
                    if duration >= min_duration_s - 1e-9:
                        intervals.append(
                            StallInterval(
                                start_at=freeze_start,
                                end_at=last.at,
                                position_s=last.position_s,
                            )
                        )
                    freeze_start = None
            last = sample
        # A trailing freeze is end-of-session (either the content ended or
        # the capture did); the paper cannot attribute it to a stall unless
        # playback resumed, so neither do we.
        return intervals

    def total_stall_s(self, *, min_duration_s: float = 1.5) -> float:
        return sum(
            interval.duration_s
            for interval in self.stall_intervals(min_duration_s=min_duration_s)
        )

    def stall_count(self, *, min_duration_s: float = 1.5) -> int:
        return len(self.stall_intervals(min_duration_s=min_duration_s))

    def played_duration_s(self) -> float:
        return self.final_position_s()
