"""ABR algorithm unit tests (section 3.3.3/3.3.4, section 4.2)."""

import dataclasses

import pytest

from repro.manifest.types import ClientSegmentInfo, ClientTrackInfo
from repro.media.track import StreamType
from repro.player.abr import (
    AbrContext,
    ExoPlayerAbr,
    RateBasedAbr,
    UnstableAbr,
    track_rate_bps,
)
from repro.util import kbps


def make_tracks(declared_kbps, *, actual_ratio=None, segment_count=10,
                duration=4.0, average_bandwidth_ratio=None):
    """Tracks with optional per-segment sizes (actual = ratio * declared)."""
    tracks = []
    for level, declared in enumerate(declared_kbps):
        segments = None
        if actual_ratio is not None:
            segments = [
                ClientSegmentInfo(
                    index=i, start_s=i * duration, duration_s=duration,
                    url=f"u{level}",
                    size_bytes=int(
                        kbps(declared) * actual_ratio * duration / 8
                    ),
                )
                for i in range(segment_count)
            ]
        tracks.append(ClientTrackInfo(
            track_key=f"t{level}", stream_type=StreamType.VIDEO, level=level,
            declared_bitrate_bps=kbps(declared),
            average_bandwidth_bps=(
                kbps(declared) * average_bandwidth_ratio
                if average_bandwidth_ratio else None
            ),
            segments=segments,
        ))
    return tracks


def ctx(tracks, estimate_kbps, *, buffer_s=20.0, last_level=None,
        next_index=0):
    return AbrContext(
        now=0.0, tracks=tracks, buffer_s=buffer_s,
        estimate_bps=kbps(estimate_kbps) if estimate_kbps is not None else None,
        last_level=last_level, next_index=next_index,
    )


LADDER = (250, 500, 1000, 2000, 4000)


class TestTrackRate:
    def test_declared_when_no_sizes(self):
        track = make_tracks([1000])[0]
        assert track_rate_bps(track, 0, use_actual=True) == kbps(1000)

    def test_actual_from_segments(self):
        track = make_tracks([1000], actual_ratio=0.5)[0]
        assert track_rate_bps(track, 0, use_actual=True) == \
            pytest.approx(kbps(500), rel=0.01)

    def test_average_bandwidth_fallback(self):
        track = make_tracks([1000], average_bandwidth_ratio=0.5)[0]
        assert track_rate_bps(track, 0, use_actual=True) == kbps(500)

    def test_ignored_without_use_actual(self):
        track = make_tracks([1000], actual_ratio=0.5)[0]
        assert track_rate_bps(track, 0, use_actual=False) == kbps(1000)


class TestRateBased:
    def test_basic_selection(self):
        abr = RateBasedAbr(0.75)
        tracks = make_tracks(LADDER)
        assert abr.select_level(ctx(tracks, 2000)) == 2  # 0.75*2000=1500 -> 1000

    def test_safety_factor_positions_envelope(self):
        tracks = make_tracks(LADDER)
        conservative = RateBasedAbr(0.5).select_level(ctx(tracks, 2100))
        aggressive = RateBasedAbr(1.0).select_level(ctx(tracks, 2100))
        assert conservative < aggressive

    def test_no_estimate_holds_last(self):
        abr = RateBasedAbr(0.75)
        tracks = make_tracks(LADDER)
        assert abr.select_level(ctx(tracks, None, last_level=3)) == 3
        assert abr.select_level(ctx(tracks, None)) == 0

    def test_up_step_limited(self):
        abr = RateBasedAbr(1.0, max_up_step=1)
        tracks = make_tracks(LADDER)
        assert abr.select_level(ctx(tracks, 4000, last_level=0)) == 1

    def test_down_switch_immediate_without_guard(self):
        abr = RateBasedAbr(0.75)
        tracks = make_tracks(LADDER)
        level = abr.select_level(ctx(tracks, 400, last_level=4, buffer_s=120))
        assert level == 0

    def test_buffer_guard_defers_down_switch(self):
        abr = RateBasedAbr(0.75, decrease_buffer_threshold_s=40.0)
        tracks = make_tracks(LADDER)
        held = abr.select_level(ctx(tracks, 400, last_level=4, buffer_s=120))
        assert held == 4
        dropped = abr.select_level(ctx(tracks, 400, last_level=4, buffer_s=30))
        assert dropped == 0

    def test_use_actual_selects_higher_for_vbr(self):
        tracks = make_tracks(LADDER, actual_ratio=0.5)
        declared_only = RateBasedAbr(0.75, use_actual=False)
        actual_aware = RateBasedAbr(0.75, use_actual=True, max_up_step=None)
        assert actual_aware.select_level(ctx(tracks, 2000)) > \
            declared_only.select_level(ctx(tracks, 2000))

    def test_rejects_bad_safety(self):
        with pytest.raises(ValueError):
            RateBasedAbr(0.0)


class TestUnstable:
    def test_greedy_over_varying_segment_sizes(self):
        """Alternating segment sizes around the budget flip the choice."""
        tracks = make_tracks((500, 1000), actual_ratio=0.5)
        # Make track 1's segments alternate between cheap and expensive.
        tracks[1].segments = [
            dataclasses.replace(segment, size_bytes=int(
                kbps(1000) * (0.3 if i % 2 == 0 else 0.9) * 4 / 8
            ))
            for i, segment in enumerate(tracks[1].segments)
        ]
        abr = UnstableAbr(safety_factor=1.0)
        level_even = abr.select_level(ctx(tracks, 500, next_index=0))
        level_odd = abr.select_level(ctx(tracks, 500, next_index=1))
        assert level_even == 1
        assert level_odd == 0

    def test_no_estimate(self):
        abr = UnstableAbr()
        tracks = make_tracks(LADDER)
        assert abr.select_level(ctx(tracks, None, last_level=2)) == 2


class TestExoPlayerAbr:
    def test_ideal_selection(self):
        abr = ExoPlayerAbr(bandwidth_fraction=0.75)
        tracks = make_tracks(LADDER)
        assert abr.select_level(ctx(tracks, 2000, last_level=2)) == 2

    def test_up_switch_suppressed_on_short_buffer(self):
        abr = ExoPlayerAbr(min_duration_for_quality_increase_s=10.0)
        tracks = make_tracks(LADDER)
        assert abr.select_level(
            ctx(tracks, 6000, last_level=1, buffer_s=5.0)
        ) == 1
        assert abr.select_level(
            ctx(tracks, 6000, last_level=1, buffer_s=15.0)
        ) == 4

    def test_down_switch_suppressed_on_long_buffer(self):
        abr = ExoPlayerAbr(max_duration_for_quality_decrease_s=25.0)
        tracks = make_tracks(LADDER)
        assert abr.select_level(
            ctx(tracks, 300, last_level=3, buffer_s=30.0)
        ) == 3
        assert abr.select_level(
            ctx(tracks, 300, last_level=3, buffer_s=20.0)
        ) == 0

    def test_use_actual_flag(self):
        tracks = make_tracks(LADDER, actual_ratio=0.5)
        declared = ExoPlayerAbr(use_actual=False)
        actual = ExoPlayerAbr(use_actual=True)
        c = ctx(tracks, 2000, last_level=2, buffer_s=15.0)
        assert actual.select_level(c) > declared.select_level(c)
