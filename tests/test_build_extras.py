"""The black-box probes' build extras on both engines.

The six probes in ``repro.blackbox`` build plain ``RunSpec``s and pass
live objects to ``run_one``: a segment-limit rejector
(``reject_after_segments``), an MPD rewriter (``manifest_rewriter``) and
a hand-built ``player_config``.  They run on the default engine, so each
extra must give the tick oracle's records, player events, UI samples and
reconstructed media downloads on the event engine too.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.blackbox.variants import _mpd_only
from repro.core.parallel import RunSpec
from repro.core.run import run_one
from repro.manifest.modifier import drop_lowest_track_variant, shift_tracks_variant
from repro.net.schedule import ConstantSchedule
from repro.net.traces import generate_trace
from repro.services.exoplayer import exoplayer_config
from repro.services.exoplayer import testcard_dash_spec as make_testcard_spec
from repro.util import mbps

CASES = {
    # The startup probe: reject media past the first n segments.
    "reject_after_segments": (
        RunSpec(service="H1", schedule=ConstantSchedule(mbps(8)),
                duration_s=45.0, content_duration_s=180.0),
        dict(reject_after_segments=2),
    ),
    # The Figure 12 variants, served to an actual-bitrate-aware player.
    "manifest_rewriter-shifted": (
        RunSpec(service=make_testcard_spec(),
                schedule=ConstantSchedule(mbps(1.5)), duration_s=120.0),
        dict(manifest_rewriter=_mpd_only(shift_tracks_variant),
             player_config=exoplayer_config(use_actual=True)),
    ),
    "manifest_rewriter-dropped": (
        RunSpec(service="D2", schedule=ConstantSchedule(mbps(2)),
                duration_s=120.0),
        dict(manifest_rewriter=_mpd_only(drop_lowest_track_variant)),
    ),
    # The startup sweep: an ExoPlayer config over a cellular minute.
    "player_config": (
        RunSpec(service=make_testcard_spec(8.0), trace=generate_trace(3, 60),
                duration_s=60.0),
        dict(player_config=exoplayer_config(
            startup_buffer_s=16.0, startup_min_segments=2,
            startup_track_kbps=1050.0,
        )),
    ),
}


def _observed(spec, extras):
    outcome = run_one(spec, **extras)
    result = outcome.result
    return (
        outcome.record,
        result.events.events,
        result.player.ui_samples,
        result.analyzer.media_downloads(),
        result.proxy.rejected_count,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_extra_matches_tick_oracle(case):
    spec, extras = CASES[case]
    tick = _observed(replace(spec, engine="tick"), extras)
    event = _observed(replace(spec, engine="event"), extras)
    assert tick[3], "the case downloaded no media"
    if "reject_after_segments" in extras:
        assert tick[4] > 0, "the rejector never fired"
    assert event == tick
