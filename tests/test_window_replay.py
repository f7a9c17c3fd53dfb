"""Batched windows replay segment starts exactly as the serial ticks do.

A window ends only where the simulation must react.  A segment start is
not such a place: ``Player.apply_noop_ticks`` emits ``SegmentPlayStarted``
on the tick whose advanced position leaves the covering video segment.
These tests hold that replay to serial ``advance`` calls on a deep copy,
then hold the three engines to each other on generated specs.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.blackbox.resilience import standard_fault_scenarios
from repro.core.parallel import RunSpec
from repro.core.run import run_one
from repro.core.session import Session
from repro.media.track import StreamType
from repro.net.schedule import ConstantSchedule
from repro.player.events import SegmentPlayStarted
from repro.player.player import PlayerState
from repro.server.origin import OriginServer
from repro.services import ALL_SERVICE_NAMES
from repro.services.profiles import build_service
from repro.util import mbps

DT = 0.1


def _serial_tick(session: Session) -> None:
    before = session.network.link.total_bytes_delivered
    session.network.advance(DT)
    session.rrc.observe(session.network.link.total_bytes_delivered > before, DT)
    session.player.advance(DT)
    session.clock.tick()


def _idle(session: Session) -> bool:
    """PLAYING with nothing in flight: a candidate no-op window start."""
    player = session.player
    return (
        player.state is PlayerState.PLAYING
        and not player.scheduler.busy
        and all(c.transfer is None for c in session.network.connections)
    )


def _playing_idle_session(service: str, content_s: float, skip: int):
    """A session stepped serially past ``skip`` ticks to the next idle
    instant: paused on a full buffer (long content) or with its content
    fully buffered (short content)."""
    server = OriginServer()
    built = build_service(service, server, duration_s=content_s,
                          content_seed=11)
    session = Session(built, server, ConstantSchedule(mbps(20)), dt=DT)
    for tick in range(skip + 1500):
        if session.player.ended:
            break
        if tick >= skip and _idle(session):
            return server, session
        _serial_tick(session)
    return server, None


def _unseparate(player, overlap: str) -> bool:
    """Overlap the segment after the playing one with it, so that the
    video buffer's index is no longer separated.

    ``"ulp"`` moves its start down by ulps until the bounds decrease.
    ``"wide"`` starts it between the playhead and the playing segment's
    end and moves it first in insertion order, so the coverage scan
    finds it first inside the overlap: the segment start comes before
    the playing segment's covering end.
    """
    video = player.buffers[StreamType.VIDEO]
    playing = video.segment_covering(player.position_s)
    following = video.get(playing.index + 1)
    if following is None:
        return False
    segments = video._segments
    if overlap == "wide":
        start = (player.position_s + playing.end_s) / 2
        moved = dataclasses.replace(
            following, start_s=start, duration_s=following.end_s - start)
        rest = [seg for seg in segments.values() if seg is not following]
        segments.clear()
        for segment in [moved] + rest:
            segments[segment.index] = segment
        video.mutations += 1
        return not video._index().separated
    start = following.start_s
    for _ in range(64):
        start = math.nextafter(start, -math.inf)
        segments[following.index] = dataclasses.replace(
            following, start_s=start)
        video.mutations += 1
        if not video._index().separated:
            return True
    return False


def _buffers(player):
    return {
        stream: (buffer.segments(), buffer.discarded_segments,
                 buffer.total_inserted_bytes)
        for stream, buffer in player.buffers.items()
    }


@pytest.mark.parametrize("service,overlap", [
    ("H2", None),  # HLS, 2-s segments: many starts per window
    ("D3", None),  # DASH with separate audio
    ("H1", "ulp"),  # an ulp overlap leaves the buffer index unseparated
    ("H1", "wide"),  # an unseparated index whose scan answer moves early
])
@settings(max_examples=15, deadline=None)
@given(content_s=st.sampled_from([40.0, 300.0]),
       skip=st.integers(0, 600),
       crossings=st.integers(0, 3),
       extra=st.integers(0, 12))
def test_segment_starts_replay_inside_the_window(
    service, overlap, content_s, skip, crossings, extra
):
    server, session = _playing_idle_session(service, content_s, skip)
    assume(session is not None)
    player = session.player
    if overlap is not None:
        assume(_unseparate(player, overlap))
    pos = player.position_s
    ends = sorted(
        segment.end_s
        for segment in player.buffers[StreamType.VIDEO].segments()
        if segment.end_s > pos
    )
    ticks = extra + 1
    if crossings:
        assume(len(ends) >= crossings)
        ticks += int((ends[crossings - 1] - pos) / DT)
    # The render limit keeps the window inside the buffered run.
    ticks = min(ticks, int((player._render_limit() - pos - 1e-6) / DT))
    assume(ticks >= 1)

    twin = copy.deepcopy(session, {id(server): server})
    events_before = len(twin.player.events.events)
    pause_before = twin.player.pause_state()
    for _ in range(ticks):
        twin.player.advance(DT)
        twin.clock.tick()
    serial = twin.player
    # Only windows in which the serial ticks react to nothing are no-op
    # windows; a fetch, a pause flip or a discard ends one.
    assume(serial.state is PlayerState.PLAYING)
    assume(not serial.scheduler.busy)
    assume(serial.pause_state() == pause_before)
    assume(all(
        isinstance(event, SegmentPlayStarted)
        for event in serial.events.events[events_before:]
    ))

    player.apply_noop_ticks(ticks, DT)
    session.clock.advance(ticks)

    assert session.clock.now == twin.clock.now
    assert player.events.events == serial.events.events
    assert player.ui_samples == serial.ui_samples
    assert player.position_s == serial.position_s
    assert player._current_play_index == serial._current_play_index
    assert _buffers(player) == _buffers(serial)


@st.composite
def run_specs(draw):
    duration_s = draw(st.floats(min_value=30.0, max_value=90.0))
    scenario = draw(st.one_of(
        st.none(), st.sampled_from(standard_fault_scenarios(duration_s))))
    return RunSpec(
        service=draw(st.sampled_from(ALL_SERVICE_NAMES)),
        profile_id=draw(st.integers(1, 14)),
        trace_seed=draw(st.integers(0, 2**16)),
        content_seed=draw(st.integers(0, 2**16)),
        dt=draw(st.sampled_from([0.05, 0.1, 0.2])),
        duration_s=duration_s,
        faults=scenario.faults if scenario is not None else None,
    )


def _observed(spec: RunSpec):
    outcome = run_one(spec)
    player = outcome.result.player
    return outcome.record, player.events.events, player.ui_samples


@settings(max_examples=25, deadline=None)
@given(spec=run_specs())
def test_engines_agree_on_generated_specs(spec):
    tick = _observed(dataclasses.replace(spec, engine="tick"))
    assert _observed(dataclasses.replace(spec, engine="event")) == tick
