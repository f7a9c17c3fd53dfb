"""Traffic analyzer: from captured HTTP flows to segment downloads.

Implements section 2.3 of the paper.  The analyzer is protocol-aware
but service-agnostic: it parses whatever manifests/playlists/sidx boxes
appear in the capture and builds the mapping from (URL, byte range) to
(stream, track, segment).  Three protocol shapes are handled:

* **HLS** — master playlist names per-track media playlists, media
  playlists name per-segment URLs (one file per segment);
* **DASH** — segment byte ranges either inline in the MPD or recovered
  from the sidx box of each track's media file.  If the MPD itself is
  application-layer encrypted (D3), the analyzer still recovers
  segment sizes and durations from the cleartext sidx boxes and uses
  each track's *peak actual* segment bitrate as its declared bitrate
  (footnote 4 of the paper);
* **SmoothStreaming** — the manifest's URL template expands to every
  fragment URL.

The analyzer also derives transport facts (connection count and
persistence) from flow connection ids, mirroring what a pcap exposes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.analysis.proxy import FlowRecord
from repro.manifest import (
    ClientManifest,
    ManifestCipher,
    ManifestError,
    Protocol,
    parse_any_manifest,
    parse_media_playlist,
    parse_sidx,
)
from repro.media.track import StreamType
from repro.util import non_decreasing

# Heuristic threshold separating audio-only from video tracks when the
# manifest is unreadable and only sidx data is available.
_AUDIO_PEAK_BITRATE_CUTOFF_BPS = 256_000.0


@dataclass(frozen=True)
class SegmentDownload:
    """One completed media-segment download reconstructed from traffic."""

    stream_type: StreamType
    index: int
    start_s: float
    duration_s: float
    level: int
    declared_bitrate_bps: float
    height: int | None
    size_bytes: int
    started_at: float
    completed_at: float
    url: str

    @property
    def download_duration_s(self) -> float:
        return max(self.completed_at - self.started_at, 1e-9)

    @property
    def actual_bitrate_bps(self) -> float:
        return self.size_bytes * 8.0 / self.duration_s


@dataclass
class _SegmentRange:
    range_start: int
    range_end: int
    index: int
    start_s: float
    duration_s: float
    size_bytes: int


@dataclass
class _TrackView:
    """The analyzer's knowledge of one track."""

    key: str
    stream_type: StreamType
    declared_bitrate_bps: float
    height: int | None = None
    from_sidx_only: bool = False
    segments: list[_SegmentRange] = field(default_factory=list)
    level: int = 0  # reassigned as tracks are discovered
    # (segment count, range starts or None when unsorted, range ends);
    # segments are only ever appended, so the count dates the index.
    _range_index: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def ranges_meeting(self, start: int, end: int) -> list[_SegmentRange]:
        """Segments that may share a byte with ``start..end``, in order.

        When range starts and range ends both never decrease along
        ``segments``, the segments with ``range_end >= start`` and
        ``range_start <= end`` form one slice, found by bisection;
        otherwise every segment is returned for the caller's own test.
        """
        segments = self.segments
        index = self._range_index
        if index is None or index[0] != len(segments):
            starts = [rng.range_start for rng in segments]
            ends = [rng.range_end for rng in segments]
            ordered = non_decreasing(starts) and non_decreasing(ends)
            index = (len(segments), starts if ordered else None, ends)
            self._range_index = index
        _, starts, ends = index
        if starts is None:
            return segments
        return segments[bisect_left(ends, start):bisect_right(starts, end)]


class TrafficAnalyzer:
    """Incremental analyzer over a stream of completed flows."""

    def __init__(self) -> None:
        self.manifest: ClientManifest | None = None
        self.protocol: Protocol | None = None
        self.encrypted_manifest_seen = False
        self.downloads: list[SegmentDownload] = []
        self.unattributed_media_bytes = 0
        self._tracks: list[_TrackView] = []
        self._segment_urls: dict[str, tuple[_TrackView, _SegmentRange]] = {}
        self._media_files: dict[str, _TrackView] = {}
        self._playlist_urls: dict[str, _TrackView] = {}
        self._accumulators: dict[tuple[str, int], list] = {}
        self._counter = itertools.count()

    # -- feeding ---------------------------------------------------------------

    def observe_flows(self, flows: list[FlowRecord]) -> None:
        for flow in sorted(
            (f for f in flows if f.complete), key=lambda f: f.completed_at
        ):
            self.observe_flow(flow)

    def observe_flow(self, flow: FlowRecord) -> None:
        if not flow.success or not flow.complete:
            return
        if flow.text is not None:
            self._observe_text(flow)
        elif flow.data is not None and self._try_sidx(flow):
            return
        else:
            self._observe_media(flow)

    # -- text resources ----------------------------------------------------------

    def _observe_text(self, flow: FlowRecord) -> None:
        text = flow.text or ""
        if ManifestCipher.is_encrypted(text):
            self.encrypted_manifest_seen = True
            return
        if flow.url in self._playlist_urls:
            self._attach_media_playlist(self._playlist_urls[flow.url], text, flow.url)
            return
        try:
            manifest = parse_any_manifest(text, flow.url)
        except ManifestError:
            try:
                segments = parse_media_playlist(text, flow.url)
            except ManifestError:
                return
            # A media playlist for a track we have not seen a master
            # playlist for; register an anonymous track.
            track = self._add_track(
                _TrackView(
                    key=flow.url,
                    stream_type=StreamType.VIDEO,
                    declared_bitrate_bps=1.0,
                    from_sidx_only=True,
                )
            )
            self._register_hls_segments(track, segments)
            return
        self._ingest_manifest(manifest, flow.url)

    def _ingest_manifest(self, manifest: ClientManifest, url: str) -> None:
        self.manifest = manifest
        self.protocol = manifest.protocol
        for stream_type in (StreamType.VIDEO, StreamType.AUDIO):
            for info in manifest.tracks(stream_type):
                track = self._add_track(
                    _TrackView(
                        key=info.track_key,
                        stream_type=stream_type,
                        declared_bitrate_bps=info.declared_bitrate_bps,
                        height=info.height,
                    )
                )
                if info.media_playlist_url is not None:
                    self._playlist_urls[info.media_playlist_url] = track
                if info.media_url is not None:
                    self._media_files[info.media_url] = track
                if info.segments is not None:
                    if (manifest.protocol is Protocol.DASH
                            and info.segments
                            and info.segments[0].byte_range is not None):
                        for seg in info.segments:
                            assert seg.byte_range is not None
                            track.segments.append(
                                _SegmentRange(
                                    range_start=seg.byte_range[0],
                                    range_end=seg.byte_range[1],
                                    index=seg.index,
                                    start_s=seg.start_s,
                                    duration_s=seg.duration_s,
                                    size_bytes=seg.size_bytes or 0,
                                )
                            )
                    else:  # per-segment URLs, sizes unknown until fetched
                          # (SmoothStreaming fragments, DASH SegmentTemplate)
                        for seg in info.segments:
                            rng = _SegmentRange(
                                range_start=0,
                                range_end=-1,
                                index=seg.index,
                                start_s=seg.start_s,
                                duration_s=seg.duration_s,
                                size_bytes=0,
                            )
                            track.segments.append(rng)
                            self._segment_urls[seg.url] = (track, rng)

    def _attach_media_playlist(
        self, track: _TrackView, text: str, url: str
    ) -> None:
        try:
            segments = parse_media_playlist(text, url)
        except ManifestError:
            return
        if track.segments:
            return  # already attached
        self._register_hls_segments(track, segments)

    def _register_hls_segments(self, track: _TrackView, segments) -> None:
        for seg in segments:
            rng = _SegmentRange(
                range_start=0,
                range_end=-1,
                index=seg.index,
                start_s=seg.start_s,
                duration_s=seg.duration_s,
                size_bytes=0,
            )
            track.segments.append(rng)
            self._segment_urls[seg.url] = (track, rng)

    # -- sidx ---------------------------------------------------------------------

    def _try_sidx(self, flow: FlowRecord) -> bool:
        assert flow.data is not None
        try:
            sidx = parse_sidx(flow.data)
        except ManifestError:
            return False
        track = self._media_files.get(flow.url)
        if track is None:
            # Encrypted-MPD case: discover the track from its sidx alone.
            durations = sidx.segment_durations_s()
            peak = max(
                ref.referenced_size * 8.0 / max(duration, 1e-9)
                for ref, duration in zip(sidx.references, durations)
            )
            stream_type = (
                StreamType.AUDIO
                if peak < _AUDIO_PEAK_BITRATE_CUTOFF_BPS
                else StreamType.VIDEO
            )
            track = self._add_track(
                _TrackView(
                    key=flow.url,
                    stream_type=stream_type,
                    declared_bitrate_bps=peak,
                    from_sidx_only=True,
                )
            )
            self._media_files[flow.url] = track
        if track.segments:
            return True
        index_end = (flow.byte_range[1] if flow.byte_range else len(flow.data) - 1)
        offset = index_end + 1 + sidx.first_offset
        position = 0.0
        for index, ref in enumerate(sidx.references):
            duration_s = ref.subsegment_duration / sidx.timescale
            track.segments.append(
                _SegmentRange(
                    range_start=offset,
                    range_end=offset + ref.referenced_size - 1,
                    index=index,
                    start_s=position,
                    duration_s=duration_s,
                    size_bytes=ref.referenced_size,
                )
            )
            offset += ref.referenced_size
            position += duration_s
        return True

    # -- media ---------------------------------------------------------------------

    def _observe_media(self, flow: FlowRecord) -> None:
        if flow.url in self._segment_urls:
            track, rng = self._segment_urls[flow.url]
            if rng.size_bytes == 0:
                rng.size_bytes = flow.size_bytes or 0
            self._emit(track, rng, flow.started_at, flow.completed_at,
                       flow.size_bytes or 0, flow.url)
            return
        track = self._media_files.get(flow.url)
        if track is None or flow.byte_range is None or not track.segments:
            self.unattributed_media_bytes += flow.size_bytes or 0
            return
        start, end = flow.byte_range
        for rng in track.ranges_meeting(start, end):
            overlap = min(end, rng.range_end) - max(start, rng.range_start) + 1
            if overlap <= 0:
                continue
            key = (flow.url, rng.index)
            acc = self._accumulators.setdefault(
                key, [0, flow.started_at, flow.completed_at]
            )
            acc[0] += overlap
            acc[1] = min(acc[1], flow.started_at)
            acc[2] = max(acc[2], flow.completed_at)
            if acc[0] >= rng.size_bytes - 2:
                self._emit(track, rng, acc[1], acc[2], acc[0], flow.url)
                del self._accumulators[key]

    def _emit(
        self,
        track: _TrackView,
        rng: _SegmentRange,
        started_at: float,
        completed_at: float,
        size_bytes: int,
        url: str,
    ) -> None:
        self.downloads.append(
            SegmentDownload(
                stream_type=track.stream_type,
                index=rng.index,
                start_s=rng.start_s,
                duration_s=rng.duration_s,
                level=self._level_of(track),
                declared_bitrate_bps=track.declared_bitrate_bps,
                height=track.height,
                size_bytes=size_bytes,
                started_at=started_at,
                completed_at=completed_at,
                url=url,
            )
        )

    # -- track bookkeeping -------------------------------------------------------

    def _add_track(self, track: _TrackView) -> _TrackView:
        for existing in self._tracks:
            if existing.key == track.key and existing.stream_type == track.stream_type:
                return existing
        self._tracks.append(track)
        self._reassign_levels()
        return track

    def _reassign_levels(self) -> None:
        for stream_type in (StreamType.VIDEO, StreamType.AUDIO):
            group = sorted(
                (t for t in self._tracks if t.stream_type is stream_type),
                key=lambda t: t.declared_bitrate_bps,
            )
            for level, track in enumerate(group):
                track.level = level

    def _level_of(self, track: _TrackView) -> int:
        return track.level

    # -- queries -------------------------------------------------------------------

    def tracks(self, stream_type: StreamType) -> list[_TrackView]:
        return sorted(
            (t for t in self._tracks if t.stream_type is stream_type),
            key=lambda t: t.declared_bitrate_bps,
        )

    def locate_request(
        self, url: str, byte_range: tuple[int, int] | None
    ) -> tuple[StreamType, int, int, float] | None:
        """Classify a request: (stream, level, index, segment start)."""
        if url in self._segment_urls:
            track, rng = self._segment_urls[url]
            return (track.stream_type, track.level, rng.index, rng.start_s)
        track = self._media_files.get(url)
        if track is None or byte_range is None or not track.segments:
            return None
        start, end = byte_range
        for rng in track.ranges_meeting(start, end):
            if start <= rng.range_end and end >= rng.range_start:
                return (track.stream_type, track.level, rng.index, rng.start_s)
        return None

    def video_position_of_segment(self, index: int) -> float | None:
        for track in self.tracks(StreamType.VIDEO):
            if track.segments:
                for rng in track.segments:
                    if rng.index == index:
                        return rng.start_s
                return track.segments[-1].start_s + track.segments[-1].duration_s
        return None

    def video_timeline(self) -> list[tuple[float, float]]:
        """(start, duration) per video segment index."""
        for track in self.tracks(StreamType.VIDEO):
            if track.segments:
                return [
                    (rng.start_s, rng.duration_s)
                    for rng in sorted(track.segments, key=lambda r: r.index)
                ]
        return []

    @property
    def has_separate_audio(self) -> bool:
        return any(t.stream_type is StreamType.AUDIO for t in self._tracks)

    def segment_duration_s(
        self, stream_type: StreamType = StreamType.VIDEO
    ) -> float | None:
        tracks = self.tracks(stream_type)
        for track in tracks:
            if track.segments:
                return max(rng.duration_s for rng in track.segments)
        return None

    def declared_bitrates_bps(
        self, stream_type: StreamType = StreamType.VIDEO
    ) -> list[float]:
        return [t.declared_bitrate_bps for t in self.tracks(stream_type)]

    def media_downloads(
        self, stream_type: StreamType | None = None
    ) -> list[SegmentDownload]:
        if stream_type is None:
            return list(self.downloads)
        return [d for d in self.downloads if d.stream_type is stream_type]

    def downloaded_duration_until(
        self, t: float, stream_type: StreamType = StreamType.VIDEO
    ) -> float:
        """Unique content seconds downloaded by time ``t``."""
        seen: set[int] = set()
        total = 0.0
        for download in self.downloads:
            if download.stream_type is not stream_type:
                continue
            if download.completed_at > t + 1e-9:
                continue
            if download.index in seen:
                continue
            seen.add(download.index)
            total += download.duration_s
        return total

    # -- transport facts (section 3.2) ---------------------------------------------

    def connection_stats(self, flows: list[FlowRecord]) -> dict:
        """Connection count, concurrency and persistence from flow ids."""
        complete = [flow for flow in flows if flow.complete]
        bases: dict[str, dict[str, int]] = {}
        for flow in complete:
            base, _, incarnation = flow.connection_id.rpartition(":")
            bases.setdefault(base, {}).setdefault(incarnation, 0)
            bases[base][incarnation] += 1
        max_requests_per_incarnation = max(
            (max(per.values()) for per in bases.values()), default=0
        )
        events: list[tuple[float, int]] = []
        for flow in complete:
            events.append((flow.started_at, 1))
            events.append((flow.completed_at or flow.started_at, -1))
        events.sort(key=lambda item: (item[0], -item[1]))
        concurrent = peak = 0
        for _, delta in events:
            concurrent += delta
            peak = max(peak, concurrent)
        return {
            "distinct_connections": len(bases),
            "max_concurrent_requests": peak,
            "persistent": max_requests_per_incarnation >= 3,
        }
