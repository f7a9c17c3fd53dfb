"""Indexed lookups answer exactly as the scans they replace.

Three lookups bisect a sorted index and keep the scan as a fallback
(DESIGN.md section 4k): the player's timeline position
(``Player._index_covering``), the analyzer's byte-range attribution
(``_TrackView.ranges_meeting`` behind ``_observe_media`` and
``locate_request``) and the seekbar crossing
(``UiMonitor.time_position_crossed``).  Each is checked against the
scan, verbatim, on real inputs and on inputs that break the index's
precondition.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro import RunSpec, run_one
from repro.analysis.traffic import TrafficAnalyzer, _TrackView
from repro.analysis.ui import UiMonitor
from repro.manifest import (
    ClientSegmentInfo,
    parse_any_manifest,
    parse_media_playlist,
    parse_mpd,
    parse_sidx,
    segments_from_sidx,
)
from repro.manifest.dash import DashBuilder, SegmentAddressing
from repro.manifest.hls import HlsBuilder
from repro.manifest.smooth import SmoothBuilder
from repro.media.content import VideoContent
from repro.media.encoder import Encoder, EncoderSettings, EncodingMode, LadderRung
from repro.media.track import MediaAsset
from repro.player.events import ProgressSample
from repro.player.player import _EPS, Player
from repro.util import kbps


# ---------------------------------------------------------------------------
# timeline position
# ---------------------------------------------------------------------------


def _scan_index_covering(timeline, pos):
    for segment in timeline:
        if pos < segment.end_s - _EPS:
            return segment.index
    return timeline[-1].index


@pytest.fixture(scope="module")
def odd_asset() -> MediaAsset:
    """Segments of 2.002 s: starts are inexact float sums."""
    content = VideoContent.generate("odd-durations", 61.0, seed=3)
    encoder = Encoder(EncoderSettings(segment_duration_s=2.002,
                                      mode=EncodingMode.VBR, seed=4))
    return MediaAsset(
        asset_id="odd-durations",
        video_tracks=encoder.encode_ladder(
            content, [LadderRung(kbps(400), 360), LadderRung(kbps(1200), 720)]
        ),
        audio_tracks=(encoder.encode_audio(content, kbps(64), 2.002),),
    )


def _timelines(asset: MediaAsset) -> dict[str, list[ClientSegmentInfo]]:
    base = "https://cdn.test"
    track = asset.video_tracks[-1]
    hls = HlsBuilder(base_url=base, asset=asset)
    inline = DashBuilder(base_url=base, asset=asset,
                         addressing=SegmentAddressing.INLINE)
    sidx = DashBuilder(base_url=base, asset=asset,
                       addressing=SegmentAddressing.SIDX)
    smooth = SmoothBuilder(base_url=base, asset=asset)
    sidx_info = parse_mpd(sidx.mpd(), sidx.mpd_url).video_tracks[-1]
    return {
        "hls": parse_media_playlist(hls.media_playlist(track),
                                    hls.media_playlist_url(track)),
        "dash-inline": parse_mpd(inline.mpd(),
                                 inline.mpd_url).video_tracks[-1].segments,
        "dash-sidx": segments_from_sidx(
            sidx_info, parse_sidx(sidx.sidx(track).encode())),
        "smooth": parse_any_manifest(
            smooth.manifest(), smooth.manifest_url).video_tracks[-1].segments,
    }


def _timeline_probes(timeline) -> list[float]:
    probes = [-1.0, 0.0, math.nan, timeline[-1].end_s + 5.0]
    for segment in timeline:
        for edge in (segment.start_s, segment.end_s):
            bound = edge - _EPS
            probes += [edge, edge + _EPS, bound, bound + _EPS,
                       math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
    return probes


@pytest.mark.parametrize("asset_name", ["small_asset", "odd_asset"])
@pytest.mark.parametrize("source", ["hls", "dash-inline", "dash-sidx",
                                    "smooth"])
def test_index_covering_matches_the_scan(request, asset_name, source):
    timeline = _timelines(request.getfixturevalue(asset_name))[source]
    player = SimpleNamespace(_timeline_ends={})
    for pos in _timeline_probes(timeline):
        assert Player._index_covering(player, timeline, pos) == (
            _scan_index_covering(timeline, pos))
    # A parsed timeline is monotone: the bisection answered.
    assert player._timeline_ends[id(timeline)][1] is not None


def test_non_monotone_timeline_takes_the_scan():
    spans = [(0, 0.0, 4.0), (1, 4.0, 4.0), (2, 6.0, 1.0), (3, 8.0, 4.0)]
    timeline = [ClientSegmentInfo(index=i, start_s=s, duration_s=d, url="u")
                for i, s, d in spans]
    player = SimpleNamespace(_timeline_ends={})
    for pos in _timeline_probes(timeline):
        assert Player._index_covering(player, timeline, pos) == (
            _scan_index_covering(timeline, pos))
    assert player._timeline_ends[id(timeline)][1] is None


# ---------------------------------------------------------------------------
# analyzer byte ranges, on real captures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dash_captures():
    """Proxy captures and seekbar samples of 600-s D1-D4 sessions."""
    captures = {}
    for service in ("D1", "D2", "D3", "D4"):
        result = run_one(RunSpec(service=service, profile_id=8,
                                 duration_s=600.0, engine="event")).result
        captures[service] = (list(result.proxy.flows), result.ui)
    return captures


def _analyze(flows, *, scan: bool, monkeypatch) -> TrafficAnalyzer:
    with monkeypatch.context() as patch:
        if scan:
            patch.setattr(_TrackView, "ranges_meeting",
                          lambda self, start, end: self.segments)
        analyzer = TrafficAnalyzer()
        analyzer.observe_flows(flows)
    return analyzer


def _requests(flows):
    requests = []
    for flow in flows:
        requests.append((flow.url, flow.byte_range))
        if flow.byte_range is not None:
            start, end = flow.byte_range
            requests += [(flow.url, (start - 1, start - 1)),
                         (flow.url, (end + 1, end + 1)),
                         (flow.url, (end, end + 7)),
                         (flow.url, (end, start))]
    return requests


@pytest.mark.parametrize("service", ["D1", "D2", "D3", "D4"])
def test_analyzer_attribution_matches_the_scan(dash_captures, service,
                                               monkeypatch):
    flows, _ = dash_captures[service]
    indexed = _analyze(flows, scan=False, monkeypatch=monkeypatch)
    scanned = _analyze(flows, scan=True, monkeypatch=monkeypatch)
    assert indexed.downloads
    assert repr(indexed.downloads) == repr(scanned.downloads)
    assert indexed.unattributed_media_bytes == scanned.unattributed_media_bytes
    with monkeypatch.context() as patch:
        patch.setattr(_TrackView, "ranges_meeting",
                      lambda self, start, end: self.segments)
        expected = [scanned.locate_request(url, byte_range)
                    for url, byte_range in _requests(flows)]
    got = [indexed.locate_request(url, byte_range)
           for url, byte_range in _requests(flows)]
    assert got == expected
    # Byte-range tracks answered by bisection, not by the fallback.
    ranged = [track for track in indexed._media_files.values()
              if track._range_index is not None]
    assert ranged and all(track._range_index[1] is not None
                          for track in ranged)


def test_split_parts_are_assembled(dash_captures, monkeypatch):
    # D3 fetches each segment as three byte-range parts, so attribution
    # must accumulate several flows into one download.
    flows, _ = dash_captures["D3"]
    analyzer = _analyze(flows, scan=False, monkeypatch=monkeypatch)
    media = [flow for flow in flows
             if flow.data is None and flow.text is None and flow.complete
             and flow.success and flow.byte_range is not None]
    assert len(media) >= 2 * len(analyzer.downloads) > 0


def test_unsorted_ranges_take_the_scan(monkeypatch):
    from repro.analysis.traffic import _SegmentRange

    track = _TrackView(key="t", stream_type=None, declared_bitrate_bps=1.0)
    track.segments = [
        _SegmentRange(range_start=start, range_end=end, index=i, start_s=0.0,
                      duration_s=1.0, size_bytes=end - start + 1)
        for i, (start, end) in enumerate([(100, 199), (0, 99), (200, 299)])
    ]
    assert track.ranges_meeting(150, 160) is track.segments
    assert track._range_index[1] is None


# ---------------------------------------------------------------------------
# seekbar crossings
# ---------------------------------------------------------------------------


def _scan_time_position_crossed(samples, position_s):
    for sample in samples:
        if sample.position_s >= position_s - 1e-9:
            return sample.at
    return None


def _position_probes(samples) -> list[float]:
    probes = [-1.0, math.nan, 1e9]
    for sample in samples:
        target = sample.position_s
        probes += [target, target - 1e-9, target + 1e-9,
                   math.nextafter(target, -math.inf),
                   math.nextafter(target, math.inf)]
    return probes


def test_seekbar_crossing_matches_the_scan_on_sessions(dash_captures):
    for _, ui in dash_captures.values():
        assert ui._positions is not None  # no seek: the seekbar is monotone
        for position in _position_probes(ui.samples):
            assert ui.time_position_crossed(position) == (
                _scan_time_position_crossed(ui.samples, position))


def test_backward_seek_takes_the_scan():
    positions = [0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 1.5, 2.5, 3.5, 3.5, 4.5, 6.0]
    samples = [ProgressSample(at=float(t), position_s=p)
               for t, p in enumerate(positions)]
    ui = UiMonitor(samples)
    assert ui._positions is None
    for position in _position_probes(samples):
        assert ui.time_position_crossed(position) == (
            _scan_time_position_crossed(ui.samples, position))
