"""DASH: Media Presentation Description (MPD) and Segment Index (sidx).

Two addressing layouts the paper observes are supported (section 2.3):

* ``INLINE`` — segment byte ranges and durations written directly into
  the MPD via ``SegmentList``/``SegmentTimeline`` (the D1 layout).
* ``SIDX`` — the MPD carries only ``SegmentBase@indexRange``; clients
  (and the traffic analyzer) fetch and parse the ISO BMFF ``sidx`` box
  at the head of each track's media file (the D2/D3/D4 layout).  The
  sidx here is real binary, encoded and decoded per ISO/IEC 14496-12
  (version 0), which is what lets the methodology keep working when a
  service encrypts its MPD at the application layer (footnote 4: D3).
"""

from __future__ import annotations

import enum
import functools
import re
import struct
from dataclasses import dataclass
from xml.etree import ElementTree

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

_SIDX_HEADER = struct.Struct(">I4sB3sIIII")  # through first_offset (version 0)
_SIDX_COUNTS = struct.Struct(">HH")
_SIDX_REFERENCE = struct.Struct(">III")


def _sidx_size(reference_count: int) -> int:
    return (_SIDX_HEADER.size + _SIDX_COUNTS.size
            + _SIDX_REFERENCE.size * reference_count)


@dataclass(frozen=True)
class SidxReference:
    """One subsegment reference inside a sidx box."""

    referenced_size: int
    subsegment_duration: int  # in sidx timescale ticks
    starts_with_sap: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.referenced_size < (1 << 31):
            raise ValueError(f"referenced_size out of range: {self.referenced_size}")
        if not 0 <= self.subsegment_duration < (1 << 32):
            raise ValueError(
                f"subsegment_duration out of range: {self.subsegment_duration}"
            )


@dataclass(frozen=True)
class SidxBox:
    """A Segment Index box (ISO/IEC 14496-12 section 8.16.3), version 0."""

    timescale: int
    references: tuple[SidxReference, ...]
    reference_id: int = 1
    earliest_presentation_time: int = 0
    first_offset: int = 0

    def __post_init__(self) -> None:
        if self.timescale <= 0:
            raise ValueError(f"timescale must be positive, got {self.timescale}")
        if not self.references:
            raise ValueError("sidx must reference at least one subsegment")

    @property
    def size_bytes(self) -> int:
        return _sidx_size(len(self.references))

    def encode(self) -> bytes:
        header = _SIDX_HEADER.pack(
            self.size_bytes,
            b"sidx",
            0,  # version
            b"\x00\x00\x00",  # flags
            self.reference_id,
            self.timescale,
            self.earliest_presentation_time,
            self.first_offset,
        )
        body = _SIDX_COUNTS.pack(0, len(self.references))
        for ref in self.references:
            sap = 0x80000000 if ref.starts_with_sap else 0
            body += _SIDX_REFERENCE.pack(
                ref.referenced_size, ref.subsegment_duration, sap
            )
        return header + body

    def segment_durations_s(self) -> list[float]:
        return [ref.subsegment_duration / self.timescale for ref in self.references]


@functools.lru_cache(maxsize=DEFAULT_CAPACITY)
def parse_sidx(data: bytes) -> SidxBox:
    """Decode a version-0 sidx box from ``data``.

    Memoised on ``data``; the box is frozen, so every caller may share
    it (DESIGN.md §4s).
    """
    if len(data) < _SIDX_HEADER.size + _SIDX_COUNTS.size:
        raise ManifestError("sidx truncated")
    (size, box_type, version, _flags, reference_id, timescale,
     earliest, first_offset) = _SIDX_HEADER.unpack_from(data, 0)
    if box_type != b"sidx":
        raise ManifestError(f"not a sidx box: {box_type!r}")
    if version != 0:
        raise ManifestError(f"unsupported sidx version {version}")
    if size > len(data):
        raise ManifestError(f"sidx declares {size} bytes, got {len(data)}")
    _reserved, count = _SIDX_COUNTS.unpack_from(data, _SIDX_HEADER.size)
    references = []
    offset = _SIDX_HEADER.size + _SIDX_COUNTS.size
    for _ in range(count):
        ref_field, duration, sap_field = _SIDX_REFERENCE.unpack_from(data, offset)
        if ref_field & 0x80000000:
            raise ManifestError("sidx references another sidx; unsupported")
        references.append(
            SidxReference(
                referenced_size=ref_field & 0x7FFFFFFF,
                subsegment_duration=duration,
                starts_with_sap=bool(sap_field & 0x80000000),
            )
        )
        offset += _SIDX_REFERENCE.size
    return SidxBox(
        timescale=timescale,
        references=tuple(references),
        reference_id=reference_id,
        earliest_presentation_time=earliest,
        first_offset=first_offset,
    )


class SegmentAddressing(enum.Enum):
    SIDX = "sidx"
    INLINE = "inline"
    TEMPLATE = "template"  # per-segment files via SegmentTemplate


@dataclass(frozen=True)
class DashBuilder:
    """Generates the MPD, sidx boxes and URL namespace for one asset."""

    base_url: str
    asset: MediaAsset
    addressing: SegmentAddressing = SegmentAddressing.SIDX
    timescale: int = 1000

    @property
    def mpd_url(self) -> str:
        return f"{self.base_url}/{self.asset.asset_id}/manifest.mpd"

    def media_url(self, track: Track) -> str:
        kind = "v" if track.stream_type is StreamType.VIDEO else "a"
        return f"{self.base_url}/{self.asset.asset_id}/{kind}{track.level}/media.mp4"

    def template_segment_url(self, track: Track, number: int) -> str:
        """Per-segment URL under TEMPLATE addressing."""
        kind = "v" if track.stream_type is StreamType.VIDEO else "a"
        return (f"{self.base_url}/{self.asset.asset_id}/"
                f"{kind}{track.level}/{number}.m4s")

    def sidx(self, track: Track) -> SidxBox:
        references = tuple(
            SidxReference(
                referenced_size=seg.size_bytes,
                subsegment_duration=int(round(seg.duration_s * self.timescale)),
            )
            for seg in track.segments
        )
        return SidxBox(timescale=self.timescale, references=references)

    def header_size(self, track: Track) -> int:
        # The size of sidx(track), which holds one reference per segment.
        return _sidx_size(len(track.segments))

    def media_file_size(self, track: Track) -> int:
        return self.header_size(track) + track.total_bytes

    def byte_range_of(self, track: Track, index: int) -> tuple[int, int]:
        """Inclusive byte range of segment ``index`` in the media file."""
        start = self.header_size(track) + track.byte_offset_of(index)
        return (start, start + track.segment(index).size_bytes - 1)

    def index_byte_range(self, track: Track) -> tuple[int, int]:
        return (0, self.header_size(track) - 1)

    def mpd(self) -> str:
        root = ElementTree.Element(
            "MPD",
            {
                "xmlns": "urn:mpeg:dash:schema:mpd:2011",
                "type": "static",
                "mediaPresentationDuration": _format_duration(self.asset.duration_s),
                "minBufferTime": "PT2S",
                "profiles": "urn:mpeg:dash:profile:isoff-on-demand:2011",
            },
        )
        period = ElementTree.SubElement(root, "Period", {"start": "PT0S"})
        self._adaptation_set(period, self.asset.video_tracks, StreamType.VIDEO)
        if self.asset.audio_tracks:
            self._adaptation_set(period, self.asset.audio_tracks, StreamType.AUDIO)
        return ElementTree.tostring(root, encoding="unicode", xml_declaration=True)

    def _adaptation_set(
        self,
        period: ElementTree.Element,
        tracks: tuple[Track, ...],
        stream_type: StreamType,
    ) -> None:
        mime = "video/mp4" if stream_type is StreamType.VIDEO else "audio/mp4"
        adaptation = ElementTree.SubElement(
            period,
            "AdaptationSet",
            {"contentType": stream_type.value, "mimeType": mime},
        )
        for track in tracks:
            attrs = {
                "id": f"{stream_type.value[0]}{track.level}",
                "bandwidth": str(int(track.declared_bitrate_bps)),
            }
            if stream_type is StreamType.VIDEO:
                width, height = track.resolution.split("x")
                attrs["width"] = width
                attrs["height"] = height
            representation = ElementTree.SubElement(adaptation, "Representation", attrs)
            if self.addressing is SegmentAddressing.TEMPLATE:
                self._segment_template(representation, track, stream_type)
                continue
            base = ElementTree.SubElement(representation, "BaseURL")
            base.text = self.media_url(track)
            if self.addressing is SegmentAddressing.SIDX:
                start, end = self.index_byte_range(track)
                ElementTree.SubElement(
                    representation, "SegmentBase", {"indexRange": f"{start}-{end}"}
                )
            else:
                self._segment_list(representation, track)

    def _segment_template(
        self,
        representation: ElementTree.Element,
        track: Track,
        stream_type: StreamType,
    ) -> None:
        kind = "v" if stream_type is StreamType.VIDEO else "a"
        template = ElementTree.SubElement(
            representation,
            "SegmentTemplate",
            {
                "media": f"{kind}{track.level}/$Number$.m4s",
                "startNumber": "0",
                "timescale": str(self.timescale),
            },
        )
        timeline = ElementTree.SubElement(template, "SegmentTimeline")
        for seg in track.segments:
            ticks = int(round(seg.duration_s * self.timescale))
            element = {"d": str(ticks)}
            if seg.index == 0:
                element["t"] = "0"
            ElementTree.SubElement(timeline, "S", element)

    def _segment_list(
        self, representation: ElementTree.Element, track: Track
    ) -> None:
        segment_list = ElementTree.SubElement(
            representation, "SegmentList", {"timescale": str(self.timescale)}
        )
        timeline = ElementTree.SubElement(segment_list, "SegmentTimeline")
        for seg in track.segments:
            ticks = int(round(seg.duration_s * self.timescale))
            element = {"d": str(ticks)}
            if seg.index == 0:
                element["t"] = "0"
            ElementTree.SubElement(timeline, "S", element)
        # Each range must equal byte_range_of(track, seg.index): the
        # header, then the sizes of the earlier segments.
        start = self.header_size(track)
        for seg in track.segments:
            end = start + seg.size_bytes - 1
            ElementTree.SubElement(
                segment_list, "SegmentURL", {"mediaRange": f"{start}-{end}"}
            )
            start = end + 1


def _format_duration(seconds: float) -> str:
    return f"PT{seconds:.3f}S"


_DURATION_RE = re.compile(
    r"^PT(?:(?P<h>\d+(?:\.\d+)?)H)?(?:(?P<m>\d+(?:\.\d+)?)M)?"
    r"(?:(?P<s>\d+(?:\.\d+)?)S)?$"
)


def parse_iso_duration(raw: str) -> float:
    match = _DURATION_RE.match(raw)
    if match is None:
        raise ManifestError(f"bad ISO 8601 duration: {raw!r}")
    hours = float(match.group("h") or 0)
    minutes = float(match.group("m") or 0)
    seconds = float(match.group("s") or 0)
    return hours * 3600 + minutes * 60 + seconds


def _strip_namespace(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _parse_range(raw: str) -> tuple[int, int]:
    try:
        start_str, end_str = raw.split("-")
        start, end = int(start_str), int(end_str)
    except ValueError as exc:
        raise ManifestError(f"bad byte range {raw!r}") from exc
    if end < start:
        raise ManifestError(f"bad byte range {raw!r}")
    return (start, end)


def parse_mpd(text: str, url: str) -> ClientManifest:
    """Parse an MPD into a :class:`ClientManifest`.

    For INLINE addressing, segments (with sizes) are filled immediately;
    for SIDX addressing, ``index_url``/``index_byte_range`` are set and
    segments stay ``None`` until :func:`segments_from_sidx` is applied.
    """
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise ManifestError(f"MPD is not well-formed XML: {exc}") from exc
    if _strip_namespace(root.tag) != "MPD":
        raise ManifestError(f"not an MPD (root {root.tag!r})")

    video: list[ClientTrackInfo] = []
    audio: list[ClientTrackInfo] = []
    for adaptation in _iter_children(root, "Period", "AdaptationSet"):
        content_type = adaptation.get("contentType") or ""
        mime = adaptation.get("mimeType") or ""
        if content_type == "audio" or mime.startswith("audio"):
            stream_type = StreamType.AUDIO
        else:
            stream_type = StreamType.VIDEO
        for representation in adaptation:
            if _strip_namespace(representation.tag) != "Representation":
                continue
            track = _parse_representation(representation, stream_type, url)
            (video if stream_type is StreamType.VIDEO else audio).append(track)
    if not video:
        raise ManifestError("MPD has no video representations")
    return ClientManifest(protocol=Protocol.DASH, video_tracks=video, audio_tracks=audio)


def _iter_children(root, *path):
    nodes = [root]
    for name in path:
        nodes = [
            child
            for node in nodes
            for child in node
            if _strip_namespace(child.tag) == name
        ]
    return nodes


def _parse_representation(
    representation, stream_type: StreamType, mpd_url: str
) -> ClientTrackInfo:
    bandwidth = representation.get("bandwidth")
    if bandwidth is None:
        raise ManifestError("Representation missing bandwidth")
    height = representation.get("height")
    width = representation.get("width")
    media_url: str | None = None
    index_range: tuple[int, int] | None = None
    segments: list[ClientSegmentInfo] | None = None
    segment_list = None
    segment_template = None
    for child in representation:
        tag = _strip_namespace(child.tag)
        if tag == "BaseURL":
            media_url = join_url(mpd_url, (child.text or "").strip())
        elif tag == "SegmentBase":
            raw = child.get("indexRange")
            if raw is None:
                raise ManifestError("SegmentBase missing indexRange")
            index_range = _parse_range(raw)
        elif tag == "SegmentList":
            segment_list = child
        elif tag == "SegmentTemplate":
            segment_template = child
    if segment_template is not None:
        segments = _parse_segment_template(
            segment_template, representation.get("id") or "", mpd_url
        )
    elif media_url is None:
        raise ManifestError("Representation missing BaseURL")
    if segment_list is not None:
        segments = _parse_segment_list(segment_list, media_url)
    return ClientTrackInfo(
        track_key=representation.get("id") or media_url,
        stream_type=stream_type,
        level=0,
        declared_bitrate_bps=float(bandwidth),
        height=int(height) if height else None,
        resolution=f"{width}x{height}" if width and height else None,
        media_url=media_url,
        index_url=media_url if index_range is not None else None,
        index_byte_range=index_range,
        segments=segments,
    )


def _parse_segment_list(segment_list, media_url: str) -> list[ClientSegmentInfo]:
    timescale = int(segment_list.get("timescale") or "1")
    durations: list[int] = []
    ranges: list[tuple[int, int]] = []
    for child in segment_list:
        tag = _strip_namespace(child.tag)
        if tag == "SegmentTimeline":
            for s_element in child:
                if _strip_namespace(s_element.tag) != "S":
                    continue
                duration = int(s_element.get("d") or 0)
                repeat = int(s_element.get("r") or 0)
                durations.extend([duration] * (repeat + 1))
        elif tag == "SegmentURL":
            raw = child.get("mediaRange")
            if raw is None:
                raise ManifestError("SegmentURL missing mediaRange")
            ranges.append(_parse_range(raw))
    if len(durations) != len(ranges):
        raise ManifestError(
            f"SegmentTimeline entries ({len(durations)}) do not match "
            f"SegmentURL entries ({len(ranges)})"
        )
    segments: list[ClientSegmentInfo] = []
    position = 0.0
    for index, (duration_ticks, byte_range) in enumerate(zip(durations, ranges)):
        duration_s = duration_ticks / timescale
        segments.append(
            ClientSegmentInfo(
                index=index,
                start_s=position,
                duration_s=duration_s,
                url=media_url,
                byte_range=byte_range,
                size_bytes=byte_range[1] - byte_range[0] + 1,
            )
        )
        position += duration_s
    return segments


def _parse_segment_template(template, representation_id: str,
                            mpd_url: str) -> list[ClientSegmentInfo]:
    """Expand a SegmentTemplate + SegmentTimeline into per-segment URLs.

    Supports the $Number$ and $RepresentationID$ identifiers.  Template
    addressing carries no segment sizes — like HLS, the client cannot
    know actual bitrates before downloading.
    """
    media = template.get("media")
    if media is None:
        raise ManifestError("SegmentTemplate missing media attribute")
    timescale = int(template.get("timescale") or "1")
    start_number = int(template.get("startNumber") or "1")
    durations: list[int] = []
    for child in template:
        if _strip_namespace(child.tag) != "SegmentTimeline":
            continue
        for s_element in child:
            if _strip_namespace(s_element.tag) != "S":
                continue
            duration = int(s_element.get("d") or 0)
            repeat = int(s_element.get("r") or 0)
            durations.extend([duration] * (repeat + 1))
    if not durations:
        raise ManifestError("SegmentTemplate needs a SegmentTimeline")
    segments: list[ClientSegmentInfo] = []
    position = 0.0
    for index, duration_ticks in enumerate(durations):
        expanded = media.replace("$Number$", str(start_number + index))
        expanded = expanded.replace("$RepresentationID$", representation_id)
        duration_s = duration_ticks / timescale
        segments.append(
            ClientSegmentInfo(
                index=index,
                start_s=position,
                duration_s=duration_s,
                url=join_url(mpd_url, expanded),
            )
        )
        position += duration_s
    return segments


def segments_from_sidx(
    track: ClientTrackInfo, sidx: SidxBox
) -> list[ClientSegmentInfo]:
    """Build segment infos for a SIDX-addressed track from its sidx box.

    The anchor point for the first referenced subsegment is the end of
    the index range plus ``first_offset``, per ISO/IEC 14496-12.
    Memoised on what it reads of ``track`` and on ``sidx``: each call
    returns a list of its own over the shared frozen infos (DESIGN.md
    §4s).
    """
    if track.index_byte_range is None or track.media_url is None:
        raise ManifestError(f"track {track.track_key} is not sidx-addressed")
    return list(
        _segments_from_sidx(track.index_byte_range[1], track.media_url, sidx)
    )


@functools.lru_cache(maxsize=DEFAULT_CAPACITY)
def _segments_from_sidx(
    index_end: int, media_url: str, sidx: SidxBox
) -> tuple[ClientSegmentInfo, ...]:
    offset = index_end + 1 + sidx.first_offset
    segments: list[ClientSegmentInfo] = []
    position = 0.0
    for index, ref in enumerate(sidx.references):
        duration_s = ref.subsegment_duration / sidx.timescale
        segments.append(
            ClientSegmentInfo(
                index=index,
                start_s=position,
                duration_s=duration_s,
                url=media_url,
                byte_range=(offset, offset + ref.referenced_size - 1),
                size_bytes=ref.referenced_size,
            )
        )
        offset += ref.referenced_size
        position += duration_s
    return tuple(segments)
