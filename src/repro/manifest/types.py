"""Protocol-independent client-side view of a parsed manifest.

Whatever the wire format (HLS playlist, DASH MPD, SmoothStreaming
manifest), both the player and the traffic analyzer reduce it to the
structures below.  Crucially these carry only what the manifest
actually exposes: e.g. HLS gives no per-segment sizes, so
``ClientSegmentInfo.size_bytes`` is ``None`` there, while DASH byte
ranges / sidx make sizes available before download (section 4.2 of the
paper turns on exactly this distinction).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.media.track import StreamType


class ManifestError(ValueError):
    """Raised when manifest text cannot be parsed."""


class Protocol(enum.Enum):
    HLS = "hls"
    DASH = "dash"
    SMOOTH = "smooth"


@dataclass(frozen=True)
class ClientSegmentInfo:
    """What a client knows about one segment before downloading it.

    Frozen: the memoised parse entry points hand the same infos to every
    caller, each inside a list of its own (DESIGN.md §4s).
    """

    index: int
    start_s: float
    duration_s: float
    url: str
    byte_range: tuple[int, int] | None = None
    size_bytes: int | None = None

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def actual_bitrate_bps(self) -> float | None:
        """Actual bitrate, when the manifest exposes segment sizes."""
        if self.size_bytes is None:
            return None
        return self.size_bytes * 8.0 / self.duration_s


@dataclass
class ClientTrackInfo:
    """What a client knows about one track from the manifest."""

    track_key: str
    stream_type: StreamType
    level: int
    declared_bitrate_bps: float
    average_bandwidth_bps: float | None = None
    height: int | None = None
    resolution: str | None = None
    media_playlist_url: str | None = None
    index_url: str | None = None
    index_byte_range: tuple[int, int] | None = None
    media_url: str | None = None
    segments: list[ClientSegmentInfo] | None = None

    @property
    def segments_loaded(self) -> bool:
        return self.segments is not None

    @property
    def has_segment_sizes(self) -> bool:
        return bool(self.segments) and all(
            seg.size_bytes is not None for seg in self.segments
        )

    def average_actual_bitrate_bps(self) -> float | None:
        if not self.has_segment_sizes:
            return None
        assert self.segments is not None
        total_bytes = sum(seg.size_bytes for seg in self.segments)  # type: ignore[misc]
        total_duration = sum(seg.duration_s for seg in self.segments)
        return total_bytes * 8.0 / total_duration


@dataclass
class ClientManifest:
    """The parsed manifest: tracks per stream type, sorted ascending."""

    protocol: Protocol
    video_tracks: list[ClientTrackInfo] = field(default_factory=list)
    audio_tracks: list[ClientTrackInfo] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.video_tracks.sort(key=lambda t: t.declared_bitrate_bps)
        self.audio_tracks.sort(key=lambda t: t.declared_bitrate_bps)
        for level, track in enumerate(self.video_tracks):
            track.level = level
        for level, track in enumerate(self.audio_tracks):
            track.level = level

    @property
    def has_separate_audio(self) -> bool:
        return bool(self.audio_tracks)

    def tracks(self, stream_type: StreamType) -> list[ClientTrackInfo]:
        if stream_type is StreamType.VIDEO:
            return self.video_tracks
        return self.audio_tracks

    def video_track(self, level: int) -> ClientTrackInfo:
        return self.video_tracks[level]


def join_url(base: str, relative: str) -> str:
    """Resolve ``relative`` against the URL of the manifest it came from."""
    if relative.startswith("http://") or relative.startswith("https://"):
        return relative
    root = base.rsplit("/", 1)[0]
    return f"{root}/{relative}"
