"""Unit tests for the media substrate: content, tracks, encoder."""

import math

import pytest

from repro.media import (
    DeclaredBitratePolicy,
    Encoder,
    EncoderSettings,
    EncodingMode,
    LadderRung,
    MediaAsset,
    SceneComplexity,
    Segment,
    StreamType,
    Track,
    VideoContent,
    generate_scene_complexity,
    segment_grid,
)
from repro.util import kbps


class TestSceneComplexity:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SceneComplexity(())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SceneComplexity((1.0, 0.0))

    def test_at_wraps_around(self):
        trace = SceneComplexity((1.0, 2.0, 3.0))
        assert trace.at(0.5) == 1.0
        assert trace.at(4.0) == 2.0  # wraps

    def test_mean_over_exact_window(self):
        trace = SceneComplexity((1.0, 3.0))
        assert trace.mean_over(0.0, 2.0) == pytest.approx(2.0)

    def test_mean_over_fractional_window(self):
        trace = SceneComplexity((1.0, 3.0))
        # [0.5, 1.5): half a second of 1.0, half of 3.0
        assert trace.mean_over(0.5, 1.0) == pytest.approx(2.0)

    def test_peak_over(self):
        trace = SceneComplexity((1.0, 5.0, 2.0))
        assert trace.peak_over(0.0, 3.0) == 5.0
        assert trace.peak_over(2.0, 1.0) == 2.0

    def test_generated_mean_is_one(self):
        trace = generate_scene_complexity(600, seed=1)
        mean = sum(trace.values) / len(trace.values)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_generated_is_deterministic(self):
        assert generate_scene_complexity(100, seed=2).values == \
            generate_scene_complexity(100, seed=2).values

    def test_generated_seed_sensitivity(self):
        assert generate_scene_complexity(100, seed=2).values != \
            generate_scene_complexity(100, seed=3).values

    def test_generated_peak_near_target(self):
        trace = generate_scene_complexity(600, seed=4, peak_to_mean=2.0)
        assert max(trace.values) <= 2.5
        assert max(trace.values) >= 1.3


class TestVideoContent:
    def test_generate(self):
        content = VideoContent.generate("movie", 300.0, seed=7)
        assert content.duration_s == 300.0
        assert content.complexity.duration_s >= 300

    def test_constant(self):
        content = VideoContent.constant("flat", 60.0)
        assert content.complexity.at(30.0) == 1.0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            VideoContent.constant("x", 0.0)


class TestSegmentGrid:
    def test_exact_division(self):
        grid = segment_grid(20.0, 4.0)
        assert len(grid) == 5
        assert grid[-1] == (16.0, 4.0)

    def test_short_final_segment(self):
        grid = segment_grid(10.0, 4.0)
        assert len(grid) == 3
        assert grid[-1] == pytest.approx((8.0, 2.0))

    def test_total_duration_preserved(self):
        grid = segment_grid(123.4, 9.0)
        assert sum(duration for _, duration in grid) == pytest.approx(123.4)


class TestSegmentAndTrack:
    def _track(self, sizes, duration=4.0):
        segments = tuple(
            Segment(index=i, start_s=i * duration, duration_s=duration,
                    size_bytes=size)
            for i, size in enumerate(sizes)
        )
        return Track(
            track_id="t", stream_type=StreamType.VIDEO, level=0,
            declared_bitrate_bps=kbps(1000), height=720, segments=segments,
        )

    def test_actual_bitrate(self):
        segment = Segment(index=0, start_s=0, duration_s=2.0, size_bytes=250_000)
        assert segment.actual_bitrate_bps == pytest.approx(1_000_000)

    def test_track_rejects_gap_in_indexes(self):
        segments = (
            Segment(index=0, start_s=0, duration_s=4, size_bytes=10),
            Segment(index=2, start_s=4, duration_s=4, size_bytes=10),
        )
        with pytest.raises(ValueError, match="not contiguous"):
            Track(track_id="t", stream_type=StreamType.VIDEO, level=0,
                  declared_bitrate_bps=1.0, height=0, segments=segments)

    def test_track_rejects_time_gap(self):
        segments = (
            Segment(index=0, start_s=0, duration_s=4, size_bytes=10),
            Segment(index=1, start_s=5, duration_s=4, size_bytes=10),
        )
        with pytest.raises(ValueError, match="does not start"):
            Track(track_id="t", stream_type=StreamType.VIDEO, level=0,
                  declared_bitrate_bps=1.0, height=0, segments=segments)

    def test_segment_at_time(self):
        track = self._track([100, 200, 300])
        assert track.segment_at_time(0.0).index == 0
        assert track.segment_at_time(3.999).index == 0
        assert track.segment_at_time(4.0).index == 1
        assert track.segment_at_time(11.9).index == 2

    def test_segment_at_time_out_of_range(self):
        track = self._track([100, 200])
        with pytest.raises(ValueError):
            track.segment_at_time(8.0)

    def test_byte_offset_of(self):
        track = self._track([100, 200, 300])
        assert track.byte_offset_of(0) == 0
        assert track.byte_offset_of(1) == 100
        assert track.byte_offset_of(2) == 300

    def test_average_and_peak_bitrate(self):
        track = self._track([100_000, 300_000], duration=4.0)
        assert track.average_actual_bitrate_bps == pytest.approx(
            400_000 * 8 / 8.0
        )
        assert track.peak_actual_bitrate_bps == pytest.approx(300_000 * 8 / 4.0)

    def test_resolution_is_16_9(self):
        track = self._track([100])
        assert track.resolution == "1280x720"

    def test_segment_lookup_errors(self):
        track = self._track([100, 200])
        with pytest.raises(IndexError):
            track.segment(5)


class TestEncoder:
    def _encode(self, content, mode, policy, segment_duration=4.0):
        encoder = Encoder(EncoderSettings(
            segment_duration_s=segment_duration, mode=mode,
            declared_policy=policy, seed=3,
        ))
        ladder = [LadderRung(kbps(400), 270), LadderRung(kbps(1600), 720)]
        return encoder.encode_ladder(content, ladder)

    @pytest.fixture(scope="class")
    def content(self):
        return VideoContent.generate("enc-test", 240.0, seed=21)

    def test_cbr_segments_near_declared(self, content):
        tracks = self._encode(content, EncodingMode.CBR,
                              DeclaredBitratePolicy.PEAK)
        for track in tracks:
            for segment in track.segments[:-1]:
                ratio = segment.actual_bitrate_bps / track.declared_bitrate_bps
                assert 0.9 < ratio < 1.1

    def test_vbr_peak_declared_keeps_actual_below_declared(self, content):
        tracks = self._encode(content, EncodingMode.VBR,
                              DeclaredBitratePolicy.PEAK)
        for track in tracks:
            # Peak near declared, average well below (the Figure 5 shape).
            assert track.peak_actual_bitrate_bps <= track.declared_bitrate_bps * 1.25
            assert track.average_actual_bitrate_bps < track.declared_bitrate_bps * 0.85

    def test_vbr_average_declared_centers_on_declared(self, content):
        tracks = self._encode(content, EncodingMode.VBR,
                              DeclaredBitratePolicy.AVERAGE)
        for track in tracks:
            ratio = track.average_actual_bitrate_bps / track.declared_bitrate_bps
            assert 0.85 < ratio < 1.15

    def test_vbr_varies_across_segments(self, content):
        tracks = self._encode(content, EncodingMode.VBR,
                              DeclaredBitratePolicy.PEAK)
        rates = [seg.actual_bitrate_bps for seg in tracks[1].segments]
        assert max(rates) / min(rates) > 1.5  # "a factor of 2 or more" in spirit

    def test_ladder_must_ascend(self, content):
        encoder = Encoder(EncoderSettings(segment_duration_s=4.0))
        with pytest.raises(ValueError):
            encoder.encode_ladder(content, [
                LadderRung(kbps(800), 480), LadderRung(kbps(400), 270),
            ])

    def test_deterministic(self, content):
        a = self._encode(content, EncodingMode.VBR, DeclaredBitratePolicy.PEAK)
        b = self._encode(content, EncodingMode.VBR, DeclaredBitratePolicy.PEAK)
        assert [s.size_bytes for s in a[0].segments] == \
            [s.size_bytes for s in b[0].segments]

    def test_audio_constant_bitrate(self, content):
        encoder = Encoder(EncoderSettings(segment_duration_s=4.0))
        audio = encoder.encode_audio(content, kbps(64), 2.0)
        assert audio.stream_type is StreamType.AUDIO
        assert audio.segment_count == 120
        for segment in audio.segments[:-1]:
            assert abs(segment.actual_bitrate_bps - kbps(64)) / kbps(64) < 0.05

    def test_track_levels_assigned_ascending(self, content):
        tracks = self._encode(content, EncodingMode.VBR,
                              DeclaredBitratePolicy.PEAK)
        assert [t.level for t in tracks] == [0, 1]

    @pytest.mark.parametrize("duration_s", [30.0, 97.5, 600.0])
    @pytest.mark.parametrize("content_seed", [11, 12, 1011])
    def test_ladder_equals_per_rung_reference(self, monkeypatch, duration_s,
                                              content_seed):
        """Means computed once per ladder give the per-rung encoder's
        assets, byte for byte, for every service."""
        import repro.services.profiles as profiles

        for spec in profiles.SERVICES.values():
            asset = spec.encode_asset(duration_s, content_seed,
                                      use_cache=False)
            with monkeypatch.context() as patch:
                patch.setattr(profiles, "Encoder", _PerRungEncoder)
                reference = spec.encode_asset(duration_s, content_seed,
                                              use_cache=False)
            assert asset == reference, spec.name


class _PerRungEncoder(Encoder):
    """The encoder before its means were shared, verbatim: each rung
    computed every segment's complexity mean, twice under VBR/PEAK."""

    def encode_ladder(self, content, ladder):
        declared = [rung.declared_bitrate_bps for rung in ladder]
        if declared != sorted(declared):
            raise ValueError("ladder rungs must have ascending declared bitrates")
        tracks = [
            self._encode_video_track(content, rung, level)
            for level, rung in enumerate(ladder)
        ]
        return tuple(tracks)

    def _encode_video_track(self, content, rung, level):
        grid = segment_grid(content.duration_s, self.settings.segment_duration_s)
        target_avg = self._target_average_bitrate(content, rung, grid)
        rng = self._rng.child(f"video/{level}/{content.content_id}")
        segments = []
        for index, (start, duration) in enumerate(grid):
            if self.settings.mode is EncodingMode.CBR:
                factor = rng.truncated_gauss(
                    1.0,
                    self.settings.cbr_jitter,
                    1.0 - 2 * self.settings.cbr_jitter,
                    1.0 + 2 * self.settings.cbr_jitter,
                )
            else:
                noise = rng.truncated_gauss(
                    1.0,
                    self.settings.vbr_noise,
                    1.0 - 2 * self.settings.vbr_noise,
                    1.0 + 2 * self.settings.vbr_noise,
                )
                factor = content.complexity.mean_over(start, duration) * noise
            size = max(1, int(round(target_avg * duration / 8.0 * factor)))
            segments.append(
                Segment(index=index, start_s=start, duration_s=duration, size_bytes=size)
            )
        return Track(
            track_id=f"{content.content_id}/video/{level}",
            stream_type=StreamType.VIDEO,
            level=level,
            declared_bitrate_bps=rung.declared_bitrate_bps,
            height=rung.height,
            segments=tuple(segments),
        )

    def _target_average_bitrate(self, content, rung, grid):
        if (
            self.settings.mode is EncodingMode.CBR
            or self.settings.declared_policy is DeclaredBitratePolicy.AVERAGE
        ):
            return rung.declared_bitrate_bps
        peak_factor = max(
            content.complexity.mean_over(start, duration) for start, duration in grid
        )
        return rung.declared_bitrate_bps / max(peak_factor, 1.0)


class TestMediaAsset:
    def test_requires_video(self):
        with pytest.raises(ValueError):
            MediaAsset(asset_id="x", video_tracks=())

    def test_duration_and_counts(self, small_asset):
        assert small_asset.duration_s == pytest.approx(120.0)
        assert small_asset.segment_count() == 30
        assert small_asset.has_separate_audio

    def test_track_lookup(self, small_asset):
        assert small_asset.video_track(1).level == 1
        with pytest.raises(KeyError):
            small_asset.video_track(9)
        track = small_asset.video_tracks[0]
        assert small_asset.track_by_id(track.track_id) is track

    def test_rejects_unsorted_bitrates(self, small_asset):
        tracks = tuple(reversed(small_asset.video_tracks))
        with pytest.raises(ValueError):
            MediaAsset(asset_id="bad", video_tracks=tracks)
