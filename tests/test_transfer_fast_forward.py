"""Transfer-window batching: bit-identity and accounting.

The event engine replays active downloads through
``Network.advance_many`` windows, counted as transfer fast-forwarded
ticks.  Those windows must be invisible in every observable output: for
each service x profile cell the flows, UI samples, events, RRC
accounting and QoE must be byte-identical to the tick oracle, with the
only difference being how many ticks were individually executed.  The
profiles and schedules here complement ``tests/test_event_engine.py``'s
grid (profiles 2/5/9/13, four off-grid steps).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.serialize import capture_to_json
from repro.core.parallel import (
    RunSpec,
    TickStats,
    execute_run_spec_with_result,
    execute_run_spec_with_stats,
)
from repro.core.events import EventDrivenSession
from repro.core.session import Session
from tests.support import run_session
from repro.net.schedule import ConstantSchedule, StepSchedule
from repro.player.player import PlayerState
from repro.server.origin import OriginServer
from repro.services import ALL_SERVICE_NAMES
from repro.services.profiles import build_service
from repro.util import mbps

GRID_PROFILES = (3, 7, 11, 14)
DURATION_S = 45.0


def _capture(result):
    return capture_to_json(result.proxy.flows, result.player.ui_samples)


def _assert_identical(serial, jumped):
    assert jumped.qoe == serial.qoe
    assert jumped.duration_s == serial.duration_s
    assert jumped.player_state == serial.player_state
    assert jumped.events.events == serial.events.events
    assert jumped.rrc.energy_j == serial.rrc.energy_j
    assert jumped.rrc.time_in_state == serial.rrc.time_in_state
    assert jumped.player.position_s == serial.player.position_s
    assert _capture(jumped) == _capture(serial)


# ---------------------------------------------------------------------------
# Grid-wide invariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SERVICE_NAMES)
def test_grid_invariance_serial_vs_fast_forward(name):
    """Byte-identical serialized output for every profile in the sample."""
    for profile_id in GRID_PROFILES:
        spec = RunSpec(service=name, profile_id=profile_id, duration_s=DURATION_S)
        record_s, result_s = execute_run_spec_with_result(
            replace(spec, engine="tick")
        )
        record_f, result_f = execute_run_spec_with_result(
            replace(spec, engine="event")
        )
        assert record_f == record_s, f"profile {profile_id}"
        _assert_identical(result_s, result_f)


# Thirty alternating steps, 1.3 s apart and off the 0.1-s tick grid:
# most transfer windows cross several capacity changes.
RAPID_STEPS = StepSchedule(
    steps=((0.0, mbps(5)),) + tuple(
        (0.05 + 1.3 * k, mbps(0.8) if k % 2 else mbps(5)) for k in range(1, 31)
    )
)


@pytest.mark.parametrize("name", ["H1", "H2", "D1", "D3", "S1"])
def test_invariance_on_step_schedule_mid_transfer(name):
    """Many capacity steps inside one active download stay invisible.

    ``advance_many`` re-reads the capacity on each tick that reaches a
    change point; these steps come faster than most downloads finish.
    """
    serial = run_session(name, RAPID_STEPS, duration_s=60.0, engine="tick")
    jumped = run_session(name, RAPID_STEPS, duration_s=60.0, engine="event")
    _assert_identical(serial, jumped)


# ---------------------------------------------------------------------------
# Tick accounting
# ---------------------------------------------------------------------------


def test_tick_stats_consistency_and_addition():
    spec = RunSpec(service="H4", profile_id=5, duration_s=DURATION_S)
    record_s, stats_s = execute_run_spec_with_stats(replace(spec, engine="tick"))
    record_f, stats_f = execute_run_spec_with_stats(replace(spec, engine="event"))
    assert record_f == record_s  # stats ride outside the record
    assert stats_s.idle_fast_forwarded_ticks == 0
    assert stats_s.transfer_fast_forwarded_ticks == 0
    assert stats_f.ticks_simulated == stats_s.ticks_executed
    assert stats_f.ticks_executed < stats_s.ticks_executed
    combined = stats_s + stats_f
    assert combined.ticks_simulated == 2 * stats_s.ticks_executed
    assert TickStats.ZERO + stats_f == stats_f


def test_transfer_fast_forward_counters_and_opt_out():
    """The event engine counts its windows; the tick oracle opts out."""
    server = OriginServer()
    built = build_service("H1", server, duration_s=60.0, content_seed=11)
    session = EventDrivenSession(built, server, ConstantSchedule(mbps(3)))
    session.run(60.0)
    assert session.transfer_fast_forwarded_ticks > 0
    assert session.transfer_fast_forward_jumps > 0

    server = OriginServer()
    built = build_service("H1", server, duration_s=60.0, content_seed=11)
    opted_out = Session(built, server, ConstantSchedule(mbps(3)))
    opted_out.run(60.0)
    assert opted_out.transfer_fast_forwarded_ticks == 0
    assert opted_out.transfer_fast_forward_jumps == 0


# ---------------------------------------------------------------------------
# Player no-op-window vetting edges
# ---------------------------------------------------------------------------


def _fresh_session(name="H1", rate=mbps(4)):
    server = OriginServer()
    built = build_service(name, server, duration_s=60.0, content_seed=11)
    return Session(built, server, ConstantSchedule(rate))


def test_transfer_noop_ticks_init_waits_on_manifest():
    session = _fresh_session()
    player = session.player
    assert player.state is PlayerState.INIT
    # Before the manifest fetch is issued, the player would act this tick.
    assert player.transfer_noop_ticks(0.1, 500) == 0
    session.network.advance(0.1)
    player.advance(0.1)
    session.clock.tick()
    # Manifest request is now in flight: playback can only wait for it.
    assert player.manifest is None
    assert player.transfer_noop_ticks(0.1, 500) == 500


def test_transfer_noop_ticks_ended_is_unbounded():
    session = _fresh_session()
    result = session.run(600.0)
    assert result.player_state is PlayerState.ENDED
    assert session.player.transfer_noop_ticks(0.1, 123) == 123


def test_transfer_noop_ticks_requires_static_slots_contract():
    session = _fresh_session()
    session.run(5.0)  # get past INIT into steady streaming
    player = session.player
    assert player.manifest is not None
    player.scheduler.slots_static_while_busy = False
    assert player.transfer_noop_ticks(0.1, 100) == 0


def test_fast_forward_session_matches_on_constant_schedule():
    serial = run_session(
        "S1", ConstantSchedule(mbps(2.5)), duration_s=90.0, engine="tick"
    )
    jumped = run_session(
        "S1", ConstantSchedule(mbps(2.5)), duration_s=90.0, engine="event"
    )
    _assert_identical(serial, jumped)
