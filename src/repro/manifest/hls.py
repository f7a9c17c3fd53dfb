"""HTTP Live Streaming (HLS) playlists.

Implements the subset of RFC 8216 the paper's services exercise: a
Master Playlist listing one ``#EXT-X-STREAM-INF`` variant per track and
per-track Media Playlists listing ``#EXTINF`` segments.  The studied
HLS services multiplex audio into the video segments (no separate audio
tracks, section 3.1) and use one media file per segment (footnote 3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.media.cache import DEFAULT_CAPACITY
from repro.media.track import MediaAsset, StreamType, Track
from repro.manifest.types import (
    ClientManifest,
    ClientSegmentInfo,
    ClientTrackInfo,
    ManifestError,
    Protocol,
    join_url,
)


@dataclass(frozen=True)
class HlsBuilder:
    """Generates the playlist text and URL namespace for one asset."""

    base_url: str
    asset: MediaAsset

    @property
    def master_url(self) -> str:
        return f"{self.base_url}/{self.asset.asset_id}/master.m3u8"

    def media_playlist_url(self, track: Track) -> str:
        return f"{self.base_url}/{self.asset.asset_id}/v{track.level}/playlist.m3u8"

    def segment_url(self, track: Track, index: int) -> str:
        return (
            f"{self.base_url}/{self.asset.asset_id}/v{track.level}/"
            f"seg{index:05d}.ts"
        )

    def master_playlist(self) -> str:
        lines = ["#EXTM3U", "#EXT-X-VERSION:3"]
        for track in self.asset.video_tracks:
            lines.append(
                "#EXT-X-STREAM-INF:"
                f"BANDWIDTH={int(track.declared_bitrate_bps)},"
                f"AVERAGE-BANDWIDTH={int(track.average_actual_bitrate_bps)},"
                f"RESOLUTION={track.resolution}"
            )
            lines.append(self.media_playlist_url(track))
        return "\n".join(lines) + "\n"

    def media_playlist(self, track: Track) -> str:
        target = max(int(round(seg.duration_s)) for seg in track.segments)
        lines = [
            "#EXTM3U",
            "#EXT-X-VERSION:3",
            f"#EXT-X-TARGETDURATION:{target}",
            "#EXT-X-MEDIA-SEQUENCE:0",
            "#EXT-X-PLAYLIST-TYPE:VOD",
        ]
        for segment in track.segments:
            lines.append(f"#EXTINF:{segment.duration_s:.3f},")
            lines.append(self.segment_url(track, segment.index))
        lines.append("#EXT-X-ENDLIST")
        return "\n".join(lines) + "\n"


def _parse_attribute_list(raw: str) -> dict[str, str]:
    """Parse an HLS attribute list, honouring quoted values."""
    attributes: dict[str, str] = {}
    key = ""
    value_chars: list[str] = []
    in_quotes = False
    in_value = False
    for char in raw + ",":
        if in_value:
            if char == '"':
                in_quotes = not in_quotes
            elif char == "," and not in_quotes:
                attributes[key.strip()] = "".join(value_chars)
                key, value_chars, in_value = "", [], False
            else:
                value_chars.append(char)
        elif char == "=":
            in_value = True
        else:
            key += char
    return attributes


def parse_master_playlist(text: str, url: str) -> ClientManifest:
    """Parse an HLS Master Playlist into a :class:`ClientManifest`.

    Track levels are assigned by ascending declared (``BANDWIDTH``)
    bitrate.  Segments stay unloaded until the corresponding media
    playlist is fetched and passed to :func:`parse_media_playlist`.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "#EXTM3U":
        raise ManifestError("not an HLS playlist: missing #EXTM3U")
    tracks: list[ClientTrackInfo] = []
    pending: dict[str, str] | None = None
    for line in lines[1:]:
        if line.startswith("#EXT-X-STREAM-INF:"):
            pending = _parse_attribute_list(line.split(":", 1)[1])
        elif not line.startswith("#"):
            if pending is None:
                raise ManifestError(f"variant URI without #EXT-X-STREAM-INF: {line}")
            if "BANDWIDTH" not in pending:
                raise ManifestError("#EXT-X-STREAM-INF missing BANDWIDTH")
            resolution = pending.get("RESOLUTION")
            height = None
            if resolution and "x" in resolution:
                height = int(resolution.split("x")[1])
            average = pending.get("AVERAGE-BANDWIDTH")
            tracks.append(
                ClientTrackInfo(
                    track_key=line,
                    stream_type=StreamType.VIDEO,
                    level=0,
                    declared_bitrate_bps=float(pending["BANDWIDTH"]),
                    average_bandwidth_bps=float(average) if average else None,
                    height=height,
                    resolution=resolution,
                    media_playlist_url=join_url(url, line),
                )
            )
            pending = None
    if not tracks:
        raise ManifestError("master playlist lists no variants")
    return ClientManifest(protocol=Protocol.HLS, video_tracks=tracks)


def parse_media_playlist(text: str, url: str) -> list[ClientSegmentInfo]:
    """Parse an HLS Media Playlist into segment infos (sizes unknown).

    Memoised on ``(text, url)``: each call returns a list of its own
    over the shared frozen infos (DESIGN.md §4s).
    """
    return list(_parse_media_playlist(text, url))


@functools.lru_cache(maxsize=DEFAULT_CAPACITY)
def _parse_media_playlist(text: str, url: str) -> tuple[ClientSegmentInfo, ...]:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "#EXTM3U":
        raise ManifestError("not an HLS playlist: missing #EXTM3U")
    segments: list[ClientSegmentInfo] = []
    duration: float | None = None
    position = 0.0
    for line in lines[1:]:
        if line.startswith("#EXTINF:"):
            duration = float(line.split(":", 1)[1].rstrip(",").split(",")[0])
        elif not line.startswith("#"):
            if duration is None:
                raise ManifestError(f"segment URI without #EXTINF: {line}")
            segments.append(
                ClientSegmentInfo(
                    index=len(segments),
                    start_s=position,
                    duration_s=duration,
                    url=join_url(url, line),
                )
            )
            position += duration
            duration = None
    if not segments:
        raise ManifestError("media playlist lists no segments")
    return tuple(segments)
