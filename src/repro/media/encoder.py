"""CBR/VBR encoder simulation.

The encoder turns :class:`~repro.media.content.VideoContent` plus a
bitrate ladder into :class:`~repro.media.track.Track` objects with
concrete per-segment sizes:

* **CBR**: every segment of a track has (nearly) the same actual
  bitrate, so the declared bitrate is a good proxy for resource needs.
* **VBR**: segment sizes follow scene complexity, so actual bitrates in
  one track vary widely (a factor of 2 or more, per the paper, section 3.1).

The *declared* bitrate written into manifests is controlled separately
(:class:`DeclaredBitratePolicy`): most services declare near the peak
segment bitrate, while S1/S2 declare near the average (Figure 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.media.content import VideoContent
from repro.media.track import Segment, StreamType, Track, segment_grid
from repro.util import DeterministicRng, check_positive


class EncodingMode(enum.Enum):
    CBR = "cbr"
    VBR = "vbr"


class DeclaredBitratePolicy(enum.Enum):
    """How a service maps a track's actual bitrates to its declared one."""

    PEAK = "peak"
    AVERAGE = "average"


@dataclass(frozen=True)
class LadderRung:
    """One entry of a bitrate ladder: the declared bitrate the manifest
    will advertise, plus the video height used for quality labels."""

    declared_bitrate_bps: float
    height: int

    def __post_init__(self) -> None:
        check_positive("declared_bitrate_bps", self.declared_bitrate_bps)
        check_positive("height", self.height)


@dataclass(frozen=True)
class EncoderSettings:
    segment_duration_s: float
    mode: EncodingMode = EncodingMode.VBR
    declared_policy: DeclaredBitratePolicy = DeclaredBitratePolicy.PEAK
    cbr_jitter: float = 0.02
    vbr_noise: float = 0.05
    seed: int = 7

    def __post_init__(self) -> None:
        check_positive("segment_duration_s", self.segment_duration_s)


@dataclass
class Encoder:
    """Encodes content into tracks according to :class:`EncoderSettings`."""

    settings: EncoderSettings
    _rng: DeterministicRng = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = DeterministicRng(self.settings.seed)

    def encode_ladder(
        self, content: VideoContent, ladder: list[LadderRung]
    ) -> tuple[Track, ...]:
        """Encode ``content`` into one video track per ladder rung.

        Rungs must be given in ascending declared bitrate; track levels
        are assigned 0 (lowest) upward.
        """
        declared = [rung.declared_bitrate_bps for rung in ladder]
        if declared != sorted(declared):
            raise ValueError("ladder rungs must have ascending declared bitrates")
        grid = segment_grid(content.duration_s, self.settings.segment_duration_s)
        # Every rung encodes over the same grid, so the per-segment
        # complexity means are computed once, and only when VBR reads them.
        means: list[float] = []
        if self.settings.mode is EncodingMode.VBR:
            means = [
                content.complexity.mean_over(start, duration)
                for start, duration in grid
            ]
        tracks = [
            self._encode_video_track(content, rung, level, grid, means)
            for level, rung in enumerate(ladder)
        ]
        return tuple(tracks)

    def encode_audio(
        self,
        content: VideoContent,
        bitrate_bps: float,
        segment_duration_s: float,
        level: int = 0,
    ) -> Track:
        """Encode a constant-bitrate audio track."""
        check_positive("bitrate_bps", bitrate_bps)
        rng = self._rng.child(f"audio/{level}/{content.content_id}")
        segments = []
        for index, (start, duration) in enumerate(
            segment_grid(content.duration_s, segment_duration_s)
        ):
            jitter = rng.truncated_gauss(1.0, 0.01, 0.97, 1.03)
            size = max(1, int(round(bitrate_bps * duration / 8.0 * jitter)))
            segments.append(
                Segment(index=index, start_s=start, duration_s=duration, size_bytes=size)
            )
        return Track(
            track_id=f"{content.content_id}/audio/{level}",
            stream_type=StreamType.AUDIO,
            level=level,
            declared_bitrate_bps=bitrate_bps,
            height=0,
            segments=tuple(segments),
        )

    def _encode_video_track(
        self,
        content: VideoContent,
        rung: LadderRung,
        level: int,
        grid: list[tuple[float, float]],
        means: list[float],
    ) -> Track:
        target_avg = self._target_average_bitrate(rung, means)
        rng = self._rng.child(f"video/{level}/{content.content_id}")
        segments: list[Segment] = []
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
                factor = means[index] * noise
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

    def _target_average_bitrate(
        self, rung: LadderRung, means: list[float]
    ) -> float:
        """Invert the declared-bitrate policy to find the encoding target.

        With a PEAK policy and VBR content, the declared bitrate sits at
        the largest per-segment complexity mean, so the average actual
        bitrate ends up well below it (the paper observes roughly half
        for D1/D2).
        """
        if (
            self.settings.mode is EncodingMode.CBR
            or self.settings.declared_policy is DeclaredBitratePolicy.AVERAGE
        ):
            return rung.declared_bitrate_bps
        peak_factor = max(means)
        return rung.declared_bitrate_bps / max(peak_factor, 1.0)
