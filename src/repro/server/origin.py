"""HTTP origin server.

Hosts media assets in any of the three HAS protocols: it materialises
the manifests via the builders in :mod:`repro.manifest`, registers a
resource per URL, and answers GET/HEAD requests (with byte-range
support for DASH single-file tracks, whose head bytes are the real
encoded sidx box).  An asset's URL → resource table is built once per
asset and hosting key, and each server mounts a copy of it.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.manifest.dash import DashBuilder, SegmentAddressing
from repro.manifest.hls import HlsBuilder
from repro.manifest.modifier import ManifestCipher
from repro.manifest.smooth import SmoothBuilder
from repro.manifest.types import Protocol
from repro.media.track import MediaAsset
from repro.net.http import HttpMethod, HttpRequest, HttpStatus, ResponsePlan


@dataclass(frozen=True)
class _TextResource:
    text: str

    def respond(self, request: HttpRequest) -> ResponsePlan:
        if request.byte_range is not None:
            raise _RangeError
        return ResponsePlan.ok_text(self.text)

    @property
    def size_bytes(self) -> int:
        return len(self.text.encode("utf-8"))


@dataclass(frozen=True)
class _OpaqueResource:
    size: int

    def respond(self, request: HttpRequest) -> ResponsePlan:
        if request.byte_range is None:
            return ResponsePlan.ok_opaque(self.size)
        start, end = request.byte_range
        if end >= self.size:
            raise _RangeError
        return ResponsePlan.ok_opaque(end - start + 1, partial=True)

    @property
    def size_bytes(self) -> int:
        return self.size


@dataclass(frozen=True)
class _MediaFileResource:
    """A DASH single-file track: real sidx bytes, then opaque media."""

    total_size: int
    header: bytes

    def respond(self, request: HttpRequest) -> ResponsePlan:
        if request.byte_range is None:
            return ResponsePlan.ok_opaque(self.total_size)
        start, end = request.byte_range
        if end >= self.total_size:
            raise _RangeError
        if end < len(self.header):
            return ResponsePlan.ok_data(self.header[start:end + 1], partial=True)
        return ResponsePlan.ok_opaque(end - start + 1, partial=True)

    @property
    def size_bytes(self) -> int:
        return self.total_size


class _RangeError(Exception):
    """Requested range not satisfiable."""


@dataclass(frozen=True)
class Hosting:
    """Base record of one hosted asset: where its manifest lives."""

    asset: MediaAsset
    manifest_url: str


@dataclass(frozen=True)
class HlsHosting(Hosting):
    builder: HlsBuilder = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass(frozen=True)
class DashHosting(Hosting):
    builder: DashBuilder = field(repr=False, default=None)  # type: ignore[assignment]
    encrypted: bool = False


@dataclass(frozen=True)
class SmoothHosting(Hosting):
    builder: SmoothBuilder = field(repr=False, default=None)  # type: ignore[assignment]


class _HostedTables:
    """Each hosted asset's URL → resource table, built once per key.

    A table is a pure function of its asset and key (protocol, base URL
    and, for DASH, the addressing and the cipher), so every server that
    hosts the asset under that key mounts a copy of the same table.
    Entries are keyed by asset identity and dropped by a finalizer when
    the asset dies, so the asset cache's bound also bounds this memo.
    Tables hold only text, sizes and sidx bytes: nothing here keeps an
    asset alive (DESIGN.md §4s).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: dict[int, dict[tuple, dict[str, object]]] = {}

    def get(
        self,
        asset: MediaAsset,
        key: tuple,
        build: Callable[[], dict[str, object]],
    ) -> dict[str, object]:
        with self._lock:
            tables = self._tables.get(id(asset))
            if tables is None:
                tables = self._tables[id(asset)] = {}
                # dict.pop takes no lock of ours, so the finalizer may run
                # in any thread, also in a collection that an allocation
                # below triggers while this thread holds the lock.
                weakref.finalize(
                    asset, self._tables.pop, id(asset), None
                ).atexit = False
            table = tables.get(key)
            if table is None:
                table = tables[key] = build()
            return table


_HOSTED = _HostedTables()


def _register(table: dict[str, object], url: str, resource) -> None:
    if url in table:
        raise ValueError(f"duplicate resource URL: {url}")
    table[url] = resource


def _hls_table(builder: HlsBuilder) -> dict[str, object]:
    table: dict[str, object] = {}
    _register(table, builder.master_url,
              _TextResource(builder.master_playlist()))
    for track in builder.asset.video_tracks:
        _register(
            table,
            builder.media_playlist_url(track),
            _TextResource(builder.media_playlist(track)),
        )
        for segment in track.segments:
            _register(
                table,
                builder.segment_url(track, segment.index),
                _OpaqueResource(segment.size_bytes),
            )
    return table


def _dash_table(
    builder: DashBuilder, mpd_text: str, cipher: Optional[ManifestCipher]
) -> dict[str, object]:
    if cipher is not None:
        mpd_text = cipher.encrypt(mpd_text)
    table: dict[str, object] = {}
    _register(table, builder.mpd_url, _TextResource(mpd_text))
    asset = builder.asset
    for track in asset.video_tracks + asset.audio_tracks:
        if builder.addressing is SegmentAddressing.TEMPLATE:
            for segment in track.segments:
                _register(
                    table,
                    builder.template_segment_url(track, segment.index),
                    _OpaqueResource(segment.size_bytes),
                )
            continue
        _register(
            table,
            builder.media_url(track),
            _MediaFileResource(
                total_size=builder.media_file_size(track),
                header=builder.sidx(track).encode(),
            ),
        )
    return table


def _smooth_table(builder: SmoothBuilder) -> dict[str, object]:
    table: dict[str, object] = {}
    _register(table, builder.manifest_url, _TextResource(builder.manifest()))
    asset = builder.asset
    for track in asset.video_tracks + asset.audio_tracks:
        for segment in track.segments:
            _register(
                table,
                builder.fragment_url(track, segment.index),
                _OpaqueResource(segment.size_bytes),
            )
    return table


class OriginServer:
    """A content server addressed purely by URL (plus byte ranges)."""

    def __init__(self) -> None:
        self._resources: dict[str, object] = {}
        self.requests_served = 0

    # -- hosting ------------------------------------------------------------

    def host_hls(self, asset: MediaAsset, base_url: str) -> HlsHosting:
        builder = HlsBuilder(base_url=base_url, asset=asset)
        self._mount(_HOSTED.get(
            asset, (Protocol.HLS, base_url), lambda: _hls_table(builder)
        ))
        return HlsHosting(asset=asset, manifest_url=builder.master_url, builder=builder)

    def host_dash(
        self,
        asset: MediaAsset,
        base_url: str,
        *,
        addressing: SegmentAddressing = SegmentAddressing.SIDX,
        cipher: Optional[ManifestCipher] = None,
        mpd_override: Optional[str] = None,
    ) -> DashHosting:
        """Host ``asset`` as DASH.

        ``cipher`` enables D3-style application-layer MPD encryption.
        ``mpd_override`` substitutes manifest text (used by black-box
        experiments that serve modified variants from the proxy side);
        its table is built for this call alone.
        """
        builder = DashBuilder(base_url=base_url, asset=asset, addressing=addressing)
        if mpd_override is None:
            table = _HOSTED.get(
                asset,
                (Protocol.DASH, base_url, addressing, cipher),
                lambda: _dash_table(builder, builder.mpd(), cipher),
            )
        else:
            table = _dash_table(builder, mpd_override, cipher)
        self._mount(table)
        return DashHosting(
            asset=asset,
            manifest_url=builder.mpd_url,
            builder=builder,
            encrypted=cipher is not None,
        )

    def host_smooth(self, asset: MediaAsset, base_url: str) -> SmoothHosting:
        builder = SmoothBuilder(base_url=base_url, asset=asset)
        self._mount(_HOSTED.get(
            asset, (Protocol.SMOOTH, base_url), lambda: _smooth_table(builder)
        ))
        return SmoothHosting(
            asset=asset, manifest_url=builder.manifest_url, builder=builder
        )

    def replace_text_resource(self, url: str, text: str) -> None:
        """Swap the body of a hosted text resource (manifest variants)."""
        if url not in self._resources:
            raise KeyError(f"no resource at {url}")
        self._resources[url] = _TextResource(text)

    def _mount(self, table: dict[str, object]) -> None:
        """Copy a hosted table into this server's own resources, so
        :meth:`replace_text_resource` stays local to this server."""
        if not self._resources.keys().isdisjoint(table):
            url = next(url for url in table if url in self._resources)
            raise ValueError(f"duplicate resource URL: {url}")
        self._resources.update(table)

    # -- serving ------------------------------------------------------------

    def handle(self, request: HttpRequest) -> ResponsePlan:
        self.requests_served += 1
        resource = self._resources.get(request.url)
        if resource is None:
            return ResponsePlan.error(HttpStatus.NOT_FOUND)
        if request.method is HttpMethod.HEAD:
            return ResponsePlan(status=HttpStatus.OK, size_bytes=1)
        try:
            return resource.respond(request)
        except _RangeError:
            return ResponsePlan.error(HttpStatus.NOT_FOUND)

    # -- out-of-band helpers (offline methodology, like curl HEAD) ----------

    def content_length(self, url: str) -> int:
        """Size a HEAD request would report (used offline, as the paper
        uses curl to size HLS/SmoothStreaming segments, section 3.1)."""
        resource = self._resources.get(url)
        if resource is None:
            raise KeyError(f"no resource at {url}")
        return resource.size_bytes

    def has_resource(self, url: str) -> bool:
        return url in self._resources
