"""Adaptation (track selection) algorithms.

Each algorithm captures one of the client design points the paper
observes (section 3.3.3–3.3.4, section 4.2):

* :class:`RateBasedAbr` — throughput-rule selection with a safety
  factor; covers the conservative services (declared <= 0.75x or 0.5x of
  bandwidth), the aggressive ones (factor ~1.0, or actual-bitrate-aware
  with VBR so declared lands at/above bandwidth), and the optional
  buffer guard that avoids down-switching while the buffer is full.
* :class:`UnstableAbr` — memoryless and per-segment-greedy; oscillates
  under constant bandwidth like D1 (Figure 8).
* :class:`ExoPlayerAbr` — models ExoPlayer's AdaptiveTrackSelection
  (bandwidth fraction + buffer-dependent switch damping), with a flag
  to consume *actual* segment bitrates instead of declared ones, which
  is the section 4.2 fix.

Selection returns a track *level* (index into the ascending track
list).  All algorithms see only :class:`ClientTrackInfo` — what the
manifest exposes — so an algorithm cannot cheat: if the protocol hides
segment sizes, ``use_actual`` silently degrades to declared bitrates,
exactly the constraint the paper describes for ExoPlayer v2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.manifest.types import ClientTrackInfo


@dataclass
class AbrContext:
    """Everything a selection decision may look at."""

    now: float
    tracks: list[ClientTrackInfo]
    buffer_s: float
    estimate_bps: Optional[float]
    last_level: Optional[int]
    next_index: int


class AbrAlgorithm(Protocol):
    def select_level(self, ctx: AbrContext) -> int: ...


# Batching contract (see ``Player.idle_noop_ticks``): an algorithm
# that implements ``buffer_wake_thresholds`` promises that, with every
# other context field held fixed, ``select_level`` is pure and its
# output can only change when ``ctx.buffer_s`` crosses one of the
# returned occupancy values.  During an idle window the buffer drains
# monotonically, so the player may skip ticks up to the next crossing.
# Algorithms without the method are never batched over.


def track_rate_bps(
    track: ClientTrackInfo,
    next_index: int,
    *,
    use_actual: bool,
    horizon: int = 3,
) -> float:
    """The bandwidth requirement the algorithm attributes to ``track``.

    With ``use_actual`` and a manifest that exposes segment sizes
    (DASH byte ranges / sidx), this is the mean actual bitrate of the
    next ``horizon`` segments.  Failing that, an HLS
    ``AVERAGE-BANDWIDTH`` attribute is used when present — the coarser
    per-track average the paper notes newer HLS versions can report.
    Otherwise the declared bitrate is all a client knows.
    """
    if use_actual:
        if track.segments:
            window = [
                seg
                for seg in track.segments[next_index:next_index + horizon]
                if seg.size_bytes is not None
            ]
            if window:
                total_bytes = sum(seg.size_bytes for seg in window)  # type: ignore[misc]
                total_duration = sum(seg.duration_s for seg in window)
                return total_bytes * 8.0 / total_duration
        if track.average_bandwidth_bps is not None:
            return track.average_bandwidth_bps
    return track.declared_bitrate_bps


def _highest_affordable(
    ctx: AbrContext, budget_bps: float, *, use_actual: bool, horizon: int = 3
) -> int:
    level = 0
    for candidate, track in enumerate(ctx.tracks):
        rate = track_rate_bps(
            track, ctx.next_index, use_actual=use_actual, horizon=horizon
        )
        if rate <= budget_bps:
            level = candidate
    return level


class RateBasedAbr:
    """Throughput-rule selection with optional buffer-guarded downswitch.

    ``safety_factor`` positions the service on Figure 9's envelopes
    (0.75x, 0.5x, ~1.0x).  ``decrease_buffer_threshold_s`` is the
    "utilise the buffer to absorb fluctuations" guard: while the buffer
    holds more than the threshold, bandwidth drops do not trigger a
    down-switch (H2/D3/S1 have it; H1/H4/H6/D1 do not, Table 1).
    """

    def __init__(
        self,
        safety_factor: float = 0.75,
        *,
        use_actual: bool = False,
        decrease_buffer_threshold_s: float | None = None,
        max_up_step: int | None = 1,
        up_margin: float = 0.1,
        horizon: int = 3,
    ):
        if safety_factor <= 0:
            raise ValueError(f"safety_factor must be positive, got {safety_factor}")
        if not 0.0 <= up_margin < 1.0:
            raise ValueError(f"up_margin must be in [0, 1), got {up_margin}")
        self.safety_factor = safety_factor
        self.use_actual = use_actual
        self.decrease_buffer_threshold_s = decrease_buffer_threshold_s
        self.max_up_step = max_up_step
        self.up_margin = up_margin
        self.horizon = horizon

    def select_level(self, ctx: AbrContext) -> int:
        if ctx.estimate_bps is None:
            return ctx.last_level if ctx.last_level is not None else 0
        candidate = _highest_affordable(
            ctx,
            self.safety_factor * ctx.estimate_bps,
            use_actual=self.use_actual,
            horizon=self.horizon,
        )
        last = ctx.last_level
        if last is None:
            return candidate
        if candidate > last:
            # Hysteresis: an up-switch must clear the budget with margin,
            # otherwise estimate jitter (e.g. slow-start restarts after
            # download pauses) makes the selection hover at a boundary.
            strict = _highest_affordable(
                ctx,
                self.safety_factor * ctx.estimate_bps * (1.0 - self.up_margin),
                use_actual=self.use_actual,
                horizon=self.horizon,
            )
            candidate = max(last, strict)
            if self.max_up_step is not None:
                candidate = min(candidate, last + self.max_up_step)
        if (
            candidate < last
            and self.decrease_buffer_threshold_s is not None
            and ctx.buffer_s > self.decrease_buffer_threshold_s
        ):
            return last
        return candidate

    def buffer_wake_thresholds(self) -> tuple[float, ...]:
        if self.decrease_buffer_threshold_s is None:
            return ()
        return (self.decrease_buffer_threshold_s,)


class UnstableAbr:
    """Greedy per-segment selection with no hysteresis (the D1 design).

    Picks the highest track whose *next segment's* actual bitrate fits
    the estimate.  Over VBR content, consecutive segments of adjacent
    tracks straddle a constant bandwidth, so the choice flips back and
    forth — high average bitrate, at the cost of constant switching.
    """

    def __init__(self, safety_factor: float = 1.0):
        if safety_factor <= 0:
            raise ValueError(f"safety_factor must be positive, got {safety_factor}")
        self.safety_factor = safety_factor

    def select_level(self, ctx: AbrContext) -> int:
        if ctx.estimate_bps is None:
            return ctx.last_level if ctx.last_level is not None else 0
        budget = self.safety_factor * ctx.estimate_bps
        return _highest_affordable(ctx, budget, use_actual=True, horizon=1)

    def buffer_wake_thresholds(self) -> tuple[float, ...]:
        return ()  # never reads the buffer


class ExoPlayerAbr:
    """ExoPlayer-style AdaptiveTrackSelection.

    The ideal track is the highest whose rate fits
    ``bandwidth_fraction * estimate``; switches up are suppressed while
    the buffer is short, switches down are suppressed while it is long.
    ``use_actual=True`` applies the paper's section 4.2 fix (possible
    only when the manifest exposes segment sizes).
    """

    def __init__(
        self,
        *,
        bandwidth_fraction: float = 0.75,
        min_duration_for_quality_increase_s: float = 10.0,
        max_duration_for_quality_decrease_s: float = 25.0,
        use_actual: bool = False,
        horizon: int = 3,
    ):
        self.bandwidth_fraction = bandwidth_fraction
        self.min_duration_for_quality_increase_s = min_duration_for_quality_increase_s
        self.max_duration_for_quality_decrease_s = max_duration_for_quality_decrease_s
        self.use_actual = use_actual
        self.horizon = horizon

    def select_level(self, ctx: AbrContext) -> int:
        if ctx.estimate_bps is None:
            return ctx.last_level if ctx.last_level is not None else 0
        ideal = _highest_affordable(
            ctx,
            self.bandwidth_fraction * ctx.estimate_bps,
            use_actual=self.use_actual,
            horizon=self.horizon,
        )
        last = ctx.last_level
        if last is None:
            return ideal
        if ideal > last and ctx.buffer_s < self.min_duration_for_quality_increase_s:
            return last
        if ideal < last and ctx.buffer_s > self.max_duration_for_quality_decrease_s:
            return last
        return ideal

    def buffer_wake_thresholds(self) -> tuple[float, ...]:
        return (
            self.min_duration_for_quality_increase_s,
            self.max_duration_for_quality_decrease_s,
        )
