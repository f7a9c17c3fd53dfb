"""Tracks, segments and media assets.

Terminology follows the paper (section 2.1): a video is encoded into
multiple *tracks* (quality levels); each track is broken into
*segments*, the smallest unit a client can switch between.  The
manifest advertises a *declared bitrate* per track which may differ
from the *actual bitrate* of individual segments, especially under VBR
encoding.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field

from repro.util import check_non_negative, check_positive


class StreamType(enum.Enum):
    """The two media stream types the paper distinguishes."""

    VIDEO = "video"
    AUDIO = "audio"

    # Members are singletons, so identity hashing agrees with equality;
    # Enum's own __hash__ rehashes the member name on every dict lookup.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Segment:
    """One media segment: a few seconds of one track."""

    index: int
    start_s: float
    duration_s: float
    size_bytes: int

    def __post_init__(self) -> None:
        check_non_negative("index", self.index)
        check_non_negative("start_s", self.start_s)
        check_positive("duration_s", self.duration_s)
        check_positive("size_bytes", self.size_bytes)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def actual_bitrate_bps(self) -> float:
        """The real bandwidth needed to stream this segment in realtime."""
        return self.size_bytes * 8.0 / self.duration_s


@dataclass(frozen=True)
class Track:
    """One quality level of one stream."""

    track_id: str
    stream_type: StreamType
    level: int
    declared_bitrate_bps: float
    height: int
    segments: tuple[Segment, ...]
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive("declared_bitrate_bps", self.declared_bitrate_bps)
        if not self.segments:
            raise ValueError(f"track {self.track_id} has no segments")
        for prev, cur in zip(self.segments, self.segments[1:]):
            if cur.index != prev.index + 1:
                raise ValueError(
                    f"track {self.track_id}: segment indexes not contiguous "
                    f"({prev.index} -> {cur.index})"
                )
            if abs(cur.start_s - prev.end_s) > 1e-6:
                raise ValueError(
                    f"track {self.track_id}: segment {cur.index} does not "
                    f"start where segment {prev.index} ends"
                )
        object.__setattr__(
            self, "_starts", tuple(seg.start_s for seg in self.segments)
        )

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def duration_s(self) -> float:
        return self.segments[-1].end_s - self.segments[0].start_s

    @property
    def total_bytes(self) -> int:
        return sum(seg.size_bytes for seg in self.segments)

    @property
    def average_actual_bitrate_bps(self) -> float:
        return self.total_bytes * 8.0 / self.duration_s

    @property
    def peak_actual_bitrate_bps(self) -> float:
        return max(seg.actual_bitrate_bps for seg in self.segments)

    @property
    def resolution(self) -> str:
        """A WxH string with a 16:9 aspect ratio, as manifests advertise."""
        width = int(round(self.height * 16 / 9 / 2) * 2)
        return f"{width}x{self.height}"

    def segment(self, index: int) -> Segment:
        first = self.segments[0].index
        if not first <= index <= self.segments[-1].index:
            raise IndexError(
                f"track {self.track_id}: no segment {index} "
                f"(have {first}..{self.segments[-1].index})"
            )
        return self.segments[index - first]

    def segment_at_time(self, time_s: float) -> Segment:
        """The segment covering playback position ``time_s``."""
        if time_s < self.segments[0].start_s - 1e-9:
            raise ValueError(f"time {time_s} before track start")
        if time_s >= self.segments[-1].end_s:
            raise ValueError(f"time {time_s} past track end")
        pos = bisect.bisect_right(self._starts, time_s + 1e-9) - 1
        return self.segments[max(pos, 0)]

    def byte_offset_of(self, index: int) -> int:
        """Byte offset of segment ``index`` when segments are stored
        back-to-back in a single media file (DASH SegmentBase layout)."""
        first = self.segments[0].index
        return sum(seg.size_bytes for seg in self.segments[: index - first])


@dataclass(frozen=True)
class MediaAsset:
    """Everything the server holds for one title."""

    asset_id: str
    video_tracks: tuple[Track, ...]
    audio_tracks: tuple[Track, ...] = ()

    def __post_init__(self) -> None:
        if not self.video_tracks:
            raise ValueError("asset needs at least one video track")
        levels = [t.level for t in self.video_tracks]
        if levels != sorted(levels) or len(set(levels)) != len(levels):
            raise ValueError("video tracks must be sorted by unique level")
        bitrates = [t.declared_bitrate_bps for t in self.video_tracks]
        if bitrates != sorted(bitrates):
            raise ValueError("video track declared bitrates must be ascending")

    @property
    def has_separate_audio(self) -> bool:
        return bool(self.audio_tracks)

    @property
    def duration_s(self) -> float:
        return self.video_tracks[0].duration_s

    @property
    def segment_duration_s(self) -> float:
        """Nominal (maximum) video segment duration."""
        return max(s.duration_s for s in self.video_tracks[0].segments)

    @property
    def audio_segment_duration_s(self) -> float | None:
        if not self.audio_tracks:
            return None
        return max(s.duration_s for s in self.audio_tracks[0].segments)

    def tracks(self, stream_type: StreamType) -> tuple[Track, ...]:
        if stream_type is StreamType.VIDEO:
            return self.video_tracks
        return self.audio_tracks

    def video_track(self, level: int) -> Track:
        for track in self.video_tracks:
            if track.level == level:
                return track
        raise KeyError(f"no video track with level {level}")

    def track_by_id(self, track_id: str) -> Track:
        for track in self.video_tracks + self.audio_tracks:
            if track.track_id == track_id:
                return track
        raise KeyError(f"no track {track_id}")

    def segment_count(self, stream_type: StreamType = StreamType.VIDEO) -> int:
        return self.tracks(stream_type)[0].segment_count


def segment_grid(duration_s: float, segment_duration_s: float) -> list[tuple[float, float]]:
    """Split ``duration_s`` into (start, duration) windows of
    ``segment_duration_s`` with a possibly shorter final segment."""
    check_positive("duration_s", duration_s)
    check_positive("segment_duration_s", segment_duration_s)
    count = int(math.ceil(duration_s / segment_duration_s - 1e-9))
    grid: list[tuple[float, float]] = []
    for i in range(count):
        start = i * segment_duration_s
        grid.append((start, min(segment_duration_s, duration_s - start)))
    return grid
