"""Bandwidth schedules: what the network emulator enforces over time.

Mirrors the paper's use of ``tc`` traffic shaping (section 2.6): constant
rates for convergence probes, step functions for adaptation probes, and
recorded cellular traces replayed for apples-to-apples QoE comparisons.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from repro.util import check_non_negative, check_positive


@runtime_checkable
class BandwidthSchedule(Protocol):
    """Anything that can answer "what is the shaped rate at time t?"."""

    def bandwidth_at(self, time_s: float) -> float:
        """Shaped downlink capacity in bits per second at ``time_s``."""
        ...

    def next_change_at(self, time_s: float) -> float:
        """Earliest ``t > time_s`` at which the rate may differ.

        Contract for the event engine's batched windows
        (``Network.advance_many`` re-reads the rate only on the tick
        that reaches this time): ``bandwidth_at`` is constant over
        ``[time_s, next_change_at(time_s))``.  Returning ``math.inf``
        promises the rate never changes again; a conservative
        implementation may return any smaller time, at the cost of
        more re-reads.
        """
        ...


@dataclass(frozen=True)
class ConstantSchedule:
    """A fixed shaped rate."""

    rate_bps: float

    def __post_init__(self) -> None:
        check_positive("rate_bps", self.rate_bps)

    def bandwidth_at(self, time_s: float) -> float:
        return self.rate_bps

    def next_change_at(self, time_s: float) -> float:
        return math.inf


@dataclass(frozen=True)
class StepSchedule:
    """A piecewise-constant rate: ``steps`` are (start_s, rate_bps) pairs.

    The paper's adaptation probes use a single step ("stays high for a
    while and then suddenly drops"); arbitrary step counts are allowed.
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("StepSchedule needs at least one step")
        starts = [start for start, _ in self.steps]
        if starts != sorted(starts):
            raise ValueError("steps must be sorted by start time")
        if starts[0] != 0.0:
            raise ValueError("first step must start at time 0")
        for _, rate in self.steps:
            check_positive("rate_bps", rate)
        object.__setattr__(self, "_starts", tuple(starts))

    @classmethod
    def single_step(
        cls, initial_bps: float, final_bps: float, step_at_s: float
    ) -> "StepSchedule":
        check_positive("step_at_s", step_at_s)
        return cls(steps=((0.0, initial_bps), (step_at_s, final_bps)))

    def bandwidth_at(self, time_s: float) -> float:
        check_non_negative("time_s", time_s)
        # bisect_right lands after the last start <= time_s; starts[0] is
        # 0.0 and time_s >= 0, so the index is always >= 1.
        return self.steps[bisect_right(self._starts, time_s) - 1][1]

    def next_change_at(self, time_s: float) -> float:
        index = bisect_right(self._starts, time_s)
        if index >= len(self._starts):
            return math.inf
        return self._starts[index]


@dataclass(frozen=True)
class TraceSchedule:
    """Replay of 1 Hz bandwidth samples; repeats beyond the trace end."""

    samples_bps: tuple[float, ...]
    sample_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.samples_bps:
            raise ValueError("trace must have at least one sample")
        check_positive("sample_interval_s", self.sample_interval_s)
        for sample in self.samples_bps:
            check_non_negative("sample_bps", sample)
        # Change points, precomputed: sample indices k (in [0, n)) whose
        # rate differs from the preceding sample's, wrap-around included
        # because the trace repeats.  ``next_change_at`` bisects this
        # tuple, so horizon queries in the batching hot loops are
        # O(log n), stateless, and skip constant stretches entirely
        # (the old last-hit cache stopped at every 1 s boundary and its
        # mutable slots were a stampede hazard when one frozen schedule
        # is probed from interleaved horizon scans).  Stored on the
        # instance, not as a field: equality and repr see only the data,
        # and ``__reduce__`` pickles only the data and rebuilds the table.
        samples = self.samples_bps
        n = len(samples)
        object.__setattr__(
            self,
            "_change_indices",
            tuple(k for k in range(n) if samples[k] != samples[k - 1]),
        )

    def __reduce__(self):
        return type(self), (self.samples_bps, self.sample_interval_s)

    @classmethod
    def from_samples(cls, samples: Sequence[float], interval_s: float = 1.0):
        return cls(samples_bps=tuple(samples), sample_interval_s=interval_s)

    @property
    def duration_s(self) -> float:
        return len(self.samples_bps) * self.sample_interval_s

    @property
    def average_bps(self) -> float:
        return sum(self.samples_bps) / len(self.samples_bps)

    def bandwidth_at(self, time_s: float) -> float:
        check_non_negative("time_s", time_s)
        key = int(time_s / self.sample_interval_s)
        return self.samples_bps[key % len(self.samples_bps)]

    def next_change_at(self, time_s: float) -> float:
        # Next sample boundary after ``time_s`` whose rate actually
        # differs from its predecessor's, in the unbounded repeated
        # index space.  Equal-rate boundaries are skipped — the rate is
        # genuinely constant across them, so the contract holds over
        # the (longer) window.
        changes = self._change_indices
        if not changes:
            return math.inf  # every sample equal: the rate never changes
        interval = self.sample_interval_s
        j = int(time_s / interval) + 1
        n = len(self.samples_bps)
        base, rem = divmod(j, n)
        pos = bisect_left(changes, rem)
        if pos == len(changes):
            base, pos = base + 1, 0
        return _sample_start(base * n + changes[pos], interval)


def _sample_start(sample: int, interval: float) -> float:
    """The first float ``t`` with ``int(t / interval) >= sample``: the
    time from which :meth:`TraceSchedule.bandwidth_at` reads ``sample``.

    ``sample * interval`` rounds to either side of it when the interval
    is not a binary fraction (0.1, 0.05), so step to it: forward while
    the product still reads the previous sample, back while the float
    before it already reads this one.
    """
    at = sample * interval
    while int(at / interval) < sample:
        at = math.nextafter(at, math.inf)
    while int(math.nextafter(at, -math.inf) / interval) >= sample:
        at = math.nextafter(at, -math.inf)
    return at
