"""A catalogue is prepared once (DESIGN.md §4s).

Hosting builds an asset's URL → resource table once per asset and
hosting key, and the parse entry points the player and the analyzer
call are memoised on their inputs.  These tests pin what makes that
safe:

* memoised parses equal uncached ones, field by field, for every
  service's manifests, playlists and sidx boxes, the manifest variants
  and relative URIs under two base URLs;
* a caller that fills in, replaces or appends to its parse changes no
  other caller's view, and segment infos cannot be assigned to;
* a hosting entry dies with its asset, and a mounted table is the
  server's own copy;
* a fully warm run equals a cold one, traces included;
* eight threads hosting and parsing the same catalogues build each
  table and parse each text once.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import time
import weakref

import pytest

import repro.manifest as manifest
import repro.manifest.dash as dash
import repro.manifest.hls as hls
import repro.server.origin as origin
from repro.analysis.proxy import FlowRecord
from repro.analysis.traffic import TrafficAnalyzer
from repro.core.parallel import RunSpec
from repro.core.run import run_one
from repro.manifest import (
    DashBuilder,
    ManifestCipher,
    SegmentAddressing,
    drop_lowest_track_variant,
    parse_any_manifest,
    parse_media_playlist,
    parse_sidx,
    segments_from_sidx,
    shift_tracks_variant,
)
from repro.manifest.types import ClientSegmentInfo, Protocol
from repro.media import clear_asset_cache
from repro.net.http import HttpRequest, HttpStatus
from repro.obs.trace import TraceConfig
from repro.server import OriginServer
from repro.services.profiles import SERVICES, build_service

BASE = "https://cdn.test"

#: The parse memos, each with the uncached function it wraps.
PARSE_MEMOS = (
    manifest._parse_any_manifest,
    hls._parse_media_playlist,
    dash.parse_sidx,
    dash._segments_from_sidx,
)


def _clear_memos() -> None:
    """Drop every catalogue memo: assets, hosting tables and parses."""
    clear_asset_cache()
    gc.collect()
    for memo in PARSE_MEMOS:
        memo.cache_clear()


def _fetch(server: OriginServer, url: str, byte_range=None):
    plan = server.handle(HttpRequest(url=url, byte_range=byte_range))
    assert plan.is_success, url
    return plan


def _uncached_manifest(text: str, url: str):
    return manifest._parse_any_manifest.__wrapped__(text, url)


def _uncached_playlist(text: str, url: str):
    return list(hls._parse_media_playlist.__wrapped__(text, url))


def _uncached_sidx_segments(track, sidx):
    return list(dash._segments_from_sidx.__wrapped__(
        track.index_byte_range[1], track.media_url, sidx
    ))


def _manifest_text(server: OriginServer, built) -> str:
    text = _fetch(server, built.manifest_url).text
    if built.cipher is not None:
        text = built.cipher.decrypt(text)
    return text


def _check_catalogue(server: OriginServer, text: str, url: str) -> int:
    """Parse a manifest and the playlist or sidx of each of its tracks,
    memoised (twice: cold or warm, then warm) and uncached; they must
    agree.  Returns how many tracks ended with a compared segment list."""
    reference = _uncached_manifest(text, url)
    parsed = parse_any_manifest(text, url)
    assert parsed == reference
    assert parse_any_manifest(text, url) == reference
    covered = 0
    for track in parsed.video_tracks + parsed.audio_tracks:
        if track.media_playlist_url is not None:
            playlist = _fetch(server, track.media_playlist_url).text
            expected = _uncached_playlist(playlist, track.media_playlist_url)
            for _ in range(2):
                assert parse_media_playlist(
                    playlist, track.media_playlist_url
                ) == expected
        elif track.index_url is not None:
            data = _fetch(server, track.index_url, track.index_byte_range).data
            box = parse_sidx.__wrapped__(data)
            for _ in range(2):
                assert parse_sidx(data) == box
                assert segments_from_sidx(track, parse_sidx(data)) == (
                    _uncached_sidx_segments(track, box)
                )
        else:
            assert track.segments
        covered += 1
    return covered


@pytest.fixture(scope="module")
def catalogues():
    """Every service hosted on its own server, 60-s catalogues."""
    hosted = {}
    for name in sorted(SERVICES):
        server = OriginServer()
        built = build_service(name, server, duration_s=60.0)
        hosted[name] = (server, built)
    return hosted


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(SERVICES))
    def test_memoised_parses_equal_uncached_ones(self, catalogues, name):
        server, built = catalogues[name]
        text = _manifest_text(server, built)
        tracks = built.asset.video_tracks + built.asset.audio_tracks
        assert _check_catalogue(server, text, built.manifest_url) == (
            len(tracks)
        )

    def test_encrypted_mpd_decrypts_to_a_parsable_mpd(self, catalogues):
        server, built = catalogues["D3"]
        wire = _fetch(server, built.manifest_url).text
        assert ManifestCipher.is_encrypted(wire)
        with pytest.raises(manifest.ManifestError):
            parse_any_manifest(wire, built.manifest_url)
        # Raised on every call, as an uncached parse would.
        with pytest.raises(manifest.ManifestError):
            parse_any_manifest(wire, built.manifest_url)
        text = built.cipher.decrypt(wire)
        assert parse_any_manifest(text, built.manifest_url).protocol is (
            Protocol.DASH
        )

    @pytest.mark.parametrize("name", ["D1", "D2", "D4"])
    @pytest.mark.parametrize(
        "variant", [drop_lowest_track_variant, shift_tracks_variant]
    )
    def test_manifest_variants(self, catalogues, name, variant):
        server, built = catalogues[name]
        text = variant(_manifest_text(server, built))
        _check_catalogue(server, text, built.manifest_url)

    def test_relative_uris_resolve_against_each_base(self):
        master = (
            "#EXTM3U\n"
            "#EXT-X-STREAM-INF:BANDWIDTH=500000,RESOLUTION=640x360\n"
            "low/index.m3u8\n"
            "#EXT-X-STREAM-INF:BANDWIDTH=1500000,RESOLUTION=1280x720\n"
            "high/index.m3u8\n"
        )
        playlist = (
            "#EXTM3U\n#EXT-X-TARGETDURATION:4\n"
            "#EXTINF:4.000,\nseg0.ts\n#EXTINF:2.500,\nseg1.ts\n"
            "#EXT-X-ENDLIST\n"
        )
        seen = set()
        for base in ("https://a.test/one", "https://b.test/two/three"):
            url = f"{base}/master.m3u8"
            parsed = parse_any_manifest(master, url)
            assert parsed == _uncached_manifest(master, url)
            playlist_url = parsed.video_tracks[0].media_playlist_url
            assert playlist_url == f"{base}/low/index.m3u8"
            segments = parse_media_playlist(playlist, playlist_url)
            assert segments == _uncached_playlist(playlist, playlist_url)
            assert segments[1].url == f"{base}/low/seg1.ts"
            seen.add(segments[0].url)
        assert len(seen) == 2


class TestIsolation:
    def test_writes_to_one_parse_reach_no_other_view(self, catalogues):
        server, built = catalogues["S1"]
        text = _manifest_text(server, built)
        url = built.manifest_url
        reference = _uncached_manifest(text, url)
        analyzer = TrafficAnalyzer()
        analyzer.observe_flow(FlowRecord(
            url=url, byte_range=None, connection_id="c0", started_at=0.0,
            status=HttpStatus.OK, planned_bytes=len(text),
            completed_at=0.5, size_bytes=len(text), text=text,
        ))
        first = parse_any_manifest(text, url)
        first.video_tracks[0].segments = []
        first.video_tracks[1].segments.append(first.video_tracks[1].segments[0])
        first.audio_tracks.pop()
        first.video_tracks[2].declared_bitrate_bps = 1.0
        second = parse_any_manifest(text, url)
        assert second == reference
        assert analyzer.manifest == reference
        assert second.video_tracks[1].segments is not (
            first.video_tracks[1].segments
        )

    def test_assigned_segments_stay_with_their_track(self, catalogues):
        server, built = catalogues["H1"]
        text = _manifest_text(server, built)
        first = parse_any_manifest(text, built.manifest_url)
        track = first.video_tracks[0]
        playlist = _fetch(server, track.media_playlist_url).text
        # What the player does on a media playlist response.
        track.segments = parse_media_playlist(playlist, track.media_playlist_url)
        track.segments.append(track.segments[0])
        again = parse_any_manifest(text, built.manifest_url)
        assert again.video_tracks[0].segments is None
        assert parse_media_playlist(playlist, track.media_playlist_url) == (
            _uncached_playlist(playlist, track.media_playlist_url)
        )

    def test_sidx_segment_lists_are_per_call(self, catalogues):
        server, built = catalogues["D2"]
        parsed = parse_any_manifest(
            _manifest_text(server, built), built.manifest_url
        )
        track = parsed.video_tracks[0]
        box = parse_sidx(
            _fetch(server, track.index_url, track.index_byte_range).data
        )
        first = segments_from_sidx(track, box)
        first.append(first[0])
        first.pop(0)
        assert segments_from_sidx(track, box) == (
            _uncached_sidx_segments(track, box)
        )

    def test_segment_infos_are_frozen(self, catalogues):
        server, built = catalogues["D1"]
        parsed = parse_any_manifest(
            _manifest_text(server, built), built.manifest_url
        )
        info = parsed.video_tracks[0].segments[0]
        assert isinstance(info, ClientSegmentInfo)
        with pytest.raises(dataclasses.FrozenInstanceError):
            info.size_bytes = 1  # type: ignore[misc]


class TestHosting:
    def test_entry_dies_with_its_asset(self):
        gc.collect()
        before = len(origin._HOSTED._tables)
        server = OriginServer()
        # A content seed no other test uses, so no fixture holds the asset.
        built = build_service("D3", server, duration_s=30.0,
                              content_seed=90_001, base_url=BASE)
        asset_ref = weakref.ref(built.asset)
        asset_id = id(built.asset)
        assert asset_id in origin._HOSTED._tables
        del server, built
        clear_asset_cache()
        gc.collect()
        assert asset_ref() is None
        assert asset_id not in origin._HOSTED._tables
        assert len(origin._HOSTED._tables) <= before

    def test_mounted_tables_are_server_local(self, small_asset):
        first, second = OriginServer(), OriginServer()
        hosting = first.host_hls(small_asset, BASE)
        second.host_hls(small_asset, BASE)
        original = _fetch(second, hosting.manifest_url).text
        first.replace_text_resource(hosting.manifest_url, "#EXTM3U\n")
        assert _fetch(first, hosting.manifest_url).text == "#EXTM3U\n"
        assert _fetch(second, hosting.manifest_url).text == original
        third = OriginServer()
        third.host_hls(small_asset, BASE)
        assert _fetch(third, hosting.manifest_url).text == original
        with pytest.raises(ValueError, match="duplicate"):
            third.host_hls(small_asset, BASE)

    def test_key_covers_addressing_cipher_and_base(self, small_asset):
        for addressing in SegmentAddressing:
            for base in (BASE, "https://other.test"):
                server = OriginServer()
                hosting = server.host_dash(small_asset, base,
                                           addressing=addressing)
                builder = DashBuilder(base_url=base, asset=small_asset,
                                      addressing=addressing)
                assert _fetch(server, hosting.manifest_url).text == (
                    builder.mpd()
                )
        for base in (BASE, "https://other.test"):
            for host in (OriginServer.host_hls, OriginServer.host_smooth):
                server = OriginServer()
                hosting = host(server, small_asset, base)
                assert hosting.manifest_url.startswith(base)
                assert _fetch(server, hosting.manifest_url).text
        plain = DashBuilder(base_url=BASE, asset=small_asset).mpd()
        for key in (b"first-key", b"second-key"):
            cipher = ManifestCipher(key=key)
            server = OriginServer()
            hosting = server.host_dash(small_asset, BASE, cipher=cipher)
            wire = _fetch(server, hosting.manifest_url).text
            assert cipher.decrypt(wire) == plain

    def test_mpd_override_bypasses_the_memo(self, small_asset):
        override = "<MPD>override</MPD>"
        server = OriginServer()
        hosting = server.host_dash(small_asset, "https://override.test",
                                   mpd_override=override)
        assert _fetch(server, hosting.manifest_url).text == override
        server = OriginServer()
        hosting = server.host_dash(small_asset, "https://override.test")
        assert _fetch(server, hosting.manifest_url).text == DashBuilder(
            base_url="https://override.test", asset=small_asset
        ).mpd()


@pytest.mark.parametrize("name", ["H1", "D1", "D2", "D3", "S1"])
def test_warm_run_equals_cold_run(name):
    spec = RunSpec(service=name, profile_id=7, duration_s=120.0,
                   tracing=TraceConfig())
    _clear_memos()
    cold = run_one(spec)
    hits = manifest._parse_any_manifest.cache_info().hits
    warm = run_one(spec)
    assert manifest._parse_any_manifest.cache_info().hits > hits
    assert warm.record == cold.record
    assert warm.tick_stats == cold.tick_stats
    assert warm.metrics == cold.metrics
    assert warm.trace == cold.trace and len(cold.trace) > 0


def test_threads_build_each_table_and_parse_each_text_once(monkeypatch):
    """Eight threads host and parse the same three catalogues at once;
    check-then-act without the lock would build a table twice."""
    names = ("H1", "D2", "S1")
    assets = {
        name: SERVICES[name].encode_asset(45.0, 7, use_cache=False)
        for name in names
    }
    builds: dict[tuple, int] = {}
    count_lock = threading.Lock()

    def counted(builder_fn):
        def build(builder, *args):
            with count_lock:
                key = (builder.asset.asset_id, type(builder).__name__)
                builds[key] = builds.get(key, 0) + 1
            return builder_fn(builder, *args)
        return build

    for attr in ("_hls_table", "_dash_table", "_smooth_table"):
        monkeypatch.setattr(origin, attr, counted(getattr(origin, attr)))
    for memo in PARSE_MEMOS:
        memo.cache_clear()
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    deadline = time.monotonic() + 2.0
    tables: list[dict] = []
    errors: list[BaseException] = []

    def host(server, name):
        spec, asset = SERVICES[name], assets[name]
        if spec.protocol is Protocol.HLS:
            return server.host_hls(asset, BASE)
        if spec.protocol is Protocol.DASH:
            return server.host_dash(asset, BASE,
                                    addressing=spec.dash_addressing)
        return server.host_smooth(asset, BASE)

    def work():
        try:
            barrier.wait(timeout=30)
            for _ in range(3):
                for name in names:
                    server = OriginServer()
                    hosting = host(server, name)
                    text = _fetch(server, hosting.manifest_url).text
                    _check_catalogue(server, text, hosting.manifest_url)
                    tables.append(dict(server._resources))
                if time.monotonic() > deadline:
                    break
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    # One build per (asset, protocol), one hosting entry per key.
    assert sorted(builds.values()) == [1, 1, 1]
    for asset in assets.values():
        assert len(origin._HOSTED._tables[id(asset)]) == 1
    by_url = {}
    for table in tables:
        first = next(iter(table))
        assert by_url.setdefault(first, table) == table
    assert len(by_url) == len(names)
    # One parse memo entry per distinct input: a manifest per catalogue,
    # H1's playlists, D2's sidx boxes and their segment lists.
    assert manifest._parse_any_manifest.cache_info().currsize == len(names)
    video_tracks = len(assets["H1"].video_tracks)
    assert hls._parse_media_playlist.cache_info().currsize == video_tracks
    d2_tracks = len(assets["D2"].video_tracks) + len(assets["D2"].audio_tracks)
    assert dash.parse_sidx.cache_info().currsize == d2_tracks
    assert dash._segments_from_sidx.cache_info().currsize == d2_tracks
