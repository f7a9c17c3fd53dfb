"""Event-driven engine: byte-identity against the tick oracle.

The contract is absolute: for any spec, ``engine="event"`` must produce
the same bytes as the serial tick loop — records, QoE, player events,
RRC accounting, flows and UI samples — while executing only event
instants as real ticks.  These tests pin the full service grid, fault
and resilience scenarios, mid-transfer capacity steps, the tick
accounting invariant, the cache-key axis, and the blind-step budget
that makes the engine worth having.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.analysis.serialize import capture_to_json
from repro.blackbox.resilience import run_resilience_sweep, standard_fault_scenarios
from repro.cli import main
from repro.core.events import EventDrivenSession
from repro.core.experiment import profile_sweep_specs
from repro.core.fleet import FleetSpec
from repro.core.outcome_cache import spec_key
from repro.core.parallel import (
    RunSpec,
    TickStats,
)
from repro.core.run import run_one
from repro.core.session import Session
from repro.net.schedule import StepSchedule, TraceSchedule
from repro.net.traces import cellular_profiles
from repro.obs import semantic_trace
from repro.services import ALL_SERVICE_NAMES
from repro.util import mbps
from tests.support import run_session

GRID_PROFILES = (2, 5, 9, 13)
DURATION_S = 45.0


def _capture(result):
    return capture_to_json(result.proxy.flows, result.player.ui_samples)


def _assert_identical(serial, event):
    assert event.qoe == serial.qoe
    assert event.duration_s == serial.duration_s
    assert event.player_state == serial.player_state
    assert event.events.events == serial.events.events
    assert event.rrc.energy_j == serial.rrc.energy_j
    assert event.rrc.time_in_state == serial.rrc.time_in_state
    assert event.player.position_s == serial.player.position_s
    assert _capture(event) == _capture(serial)


def _run_pair(spec):
    serial = run_one(replace(spec, engine="tick"))
    event = run_one(replace(spec, engine="event"))
    assert event.record == serial.record
    _assert_identical(serial.result, event.result)
    return serial.result, event.result


# ---------------------------------------------------------------------------
# Grid-wide byte identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SERVICE_NAMES)
def test_grid_identity_event_vs_serial(name):
    for profile_id in GRID_PROFILES:
        _run_pair(
            RunSpec(service=name, profile_id=profile_id, duration_s=DURATION_S)
        )


@pytest.mark.parametrize("name", ["H1", "H2", "D1", "D3", "S1"])
def test_identity_on_step_schedule_mid_transfer(name):
    """Off-grid capacity steps inside active downloads stay invisible."""
    schedule = StepSchedule(
        steps=((0.0, mbps(6)), (7.35, mbps(0.9)), (13.0, mbps(4)), (31.27, mbps(2.2)))
    )
    serial = run_session(name, schedule, duration_s=60.0, engine="tick")
    event = run_session(name, schedule, duration_s=60.0, engine="event")
    _assert_identical(serial, event)


@pytest.mark.parametrize("scenario", standard_fault_scenarios(DURATION_S),
                         ids=lambda s: s.name)
def test_identity_under_faults(scenario):
    """Every stock fault scenario: dead air, resets, bursts, outages."""
    for name in ("H1", "D2", "S1"):
        _run_pair(
            RunSpec(
                service=name,
                profile_id=9,
                duration_s=DURATION_S,
                faults=scenario.faults,
            )
        )


def test_resilience_sweep_identical_across_engines():
    report_tick = run_resilience_sweep(
        ["H1", "D3"], profile_id=9, duration_s=DURATION_S, engine="tick"
    )
    report_event = run_resilience_sweep(
        ["H1", "D3"], profile_id=9, duration_s=DURATION_S, engine="event",
    )
    assert report_event.cells == report_tick.cells
    assert report_tick.to_json()["engine"] == "tick"
    assert report_event.engine == "event"
    assert report_event.to_json()["engine"] == "event"


def test_semantic_trace_equal_across_engines():
    spec = RunSpec(service="H1", profile_id=9, duration_s=DURATION_S)
    tick = run_one(replace(spec, engine="tick"), tracer=True)
    event = run_one(replace(spec, engine="event"), tracer=True)
    assert semantic_trace(event.trace) == semantic_trace(tick.trace)
    # The meta layer differs on purpose: only the event engine batches,
    # so only its trace carries event_jump windows.
    assert "event_jump" in {e.kind for e in event.trace}
    assert "event_jump" not in {e.kind for e in tick.trace}


# ---------------------------------------------------------------------------
# Accounting: every simulated tick is either dispatched or batched
# ---------------------------------------------------------------------------


def test_tick_accounting_matches_serial_totals():
    for name in ("H1", "D2"):
        spec = RunSpec(service=name, profile_id=9, duration_s=DURATION_S)
        serial = replace(spec, engine="tick").build()
        assert type(serial) is Session
        serial.run(spec.duration_s)
        event = replace(spec, engine="event").build()
        assert isinstance(event, EventDrivenSession)
        event.run(spec.duration_s)
        stats_s = TickStats.from_session(serial)
        stats_e = TickStats.from_session(event)
        assert stats_e.ticks_simulated == stats_s.ticks_simulated
        assert stats_e.ticks_executed == event.events_dispatched
        assert sum(event.dispatch_counts.values()) == event.events_dispatched
        # The point of the engine: almost no blind steps.  Serial
        # executes every tick blindly; the event engine's blind steps
        # are its unattributed ("noop") dispatches.
        noop = event.dispatch_counts.get("noop", 0)
        assert noop * 10 <= stats_s.ticks_executed / 10


# The dispatch structure of two single sessions, generated at the
# commit before a single session became the one-client case of the
# shared-link cell's event loop; the one-client counterpart of
# ``BENCH_CELL_TICK_STATS`` in tests/test_fleet_dispatch.py.  Which
# loop serves a session must not move a dispatch, a label, a batched
# window or a queue entry.
RESET_STORM_120S = next(
    s for s in standard_fault_scenarios(120.0) if s.name == "reset-storm"
)
DISPATCH_PINS = {
    "D1-profile-11-600s": (
        RunSpec(service="D1", profile_id=11, duration_s=600.0),
        TickStats(513, 4862, 64, 625, 88),
        {"fetch_submitted": 73, "noop": 31, "pause_flip": 1,
         "segment_boundary": 8, "transfer_complete": 400},
        {"completion": 395, "horizon": 12},
        (192, 73),
    ),
    "S1-profile-5-reset-storm": (
        RunSpec(service="S1", profile_id=5, duration_s=120.0,
                faults=RESET_STORM_120S.faults,
                config_overrides=RESET_STORM_120S.config_overrides),
        TickStats(128, 268, 4, 804, 106),
        {"fault_change": 3, "fetch_submitted": 4, "noop": 3,
         "transfer_complete": 118},
        {"completion": 118, "horizon": 3},
        (63, 52),
    ),
}


@pytest.mark.parametrize("name", sorted(DISPATCH_PINS))
def test_single_session_dispatch_structure_is_pinned(name):
    spec, stats, labels, stops, queue = DISPATCH_PINS[name]
    session = spec.build()
    session.run(spec.duration_s)
    assert TickStats.from_session(session) == stats
    assert session.dispatch_counts == labels
    assert session.advance_stop_counts == stops
    assert (session.queue.pushed_total, session.queue.cancelled_total) == queue


def test_fault_change_dispatches_are_classified():
    scenario = next(
        s for s in standard_fault_scenarios(DURATION_S) if s.name == "dead-air"
    )
    spec = RunSpec(
        service="H1", profile_id=9, duration_s=DURATION_S,
        faults=scenario.faults, engine="event",
    )
    session = spec.build()
    session.run(spec.duration_s)
    assert session.dispatch_counts.get("fault_change", 0) > 0
    assert session.max_queue_depth >= 4  # two dead-air windows queued


def test_event_metrics_surface_through_observability():
    spec = RunSpec(service="H1", profile_id=9, duration_s=DURATION_S,
                   engine="event")
    outcome = run_one(spec)
    metrics = outcome.metrics
    dispatches = metrics.value("session.dispatches")
    assert dispatches is not None and dispatches > 0
    assert metrics.total("session.events") == dispatches
    assert metrics.value("session.events", type="transfer_complete") > 0
    assert metrics.value("session.queue_depth_max") is not None
    assert metrics.value("session.queue_pushes") > 0
    # Tick-mode counters stay coherent with the TickStats invariant.
    assert metrics.value("session.ticks", mode="executed") == dispatches


# ---------------------------------------------------------------------------
# Spec surface
# ---------------------------------------------------------------------------


def test_engine_participates_in_cache_key():
    spec = RunSpec(service="H1", profile_id=2, duration_s=DURATION_S)
    tick = replace(spec, engine="tick")
    event = replace(spec, engine="event")
    assert spec_key(tick) != spec_key(event)
    assert spec_key(spec) == spec_key(event)  # event is the default


def test_event_is_the_default_engine():
    assert RunSpec(service="H1").engine == "event"
    assert isinstance(
        RunSpec(service="H1", profile_id=2, duration_s=5.0).build(),
        EventDrivenSession,
    )
    specs = profile_sweep_specs("H1", cellular_profiles(10)[:1], duration_s=10.0)
    assert [spec.engine for spec in specs] == ["event"]
    assert FleetSpec(services=("H1",)).engine == "event"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        RunSpec(service="H1", duration_s=10.0, engine="warp").build()


def test_unknown_engine_rejected_at_construction():
    """A typo fails where the spec is written, not in a sweep worker."""
    with pytest.raises(ValueError, match="unknown engine"):
        RunSpec(service="H1", engine="warp")


def test_trace_schedule_next_change_skips_equal_samples():
    sched = TraceSchedule.from_samples([2e6, 2e6, 2e6, 5e6, 5e6, 2e6])
    assert sched.next_change_at(0.0) == 3.0  # skips the equal boundaries
    assert sched.next_change_at(3.2) == 5.0
    # Wrap-around: sample 5 and sample 0 are both 2e6, so the trace
    # repeat boundary itself is not a change — the next change is the
    # second repetition's rise at index 3.
    assert sched.next_change_at(5.0) == 9.0
    assert sched.next_change_at(17.4) == 21.0
    assert TraceSchedule.from_samples([4e6, 4e6]).next_change_at(1.0) == math.inf


def test_cli_trace_event_engine_prints_counters(capsys):
    code = main([
        "trace", "H1", "--bandwidth", "4", "--duration", "30",
        "--engine", "event",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "event_jump" in out
    assert "event engine:" in out
    assert "dispatches" in out and "queue depth max" in out
    assert "queue cancelled" in out
    assert "advance stops" in out


def test_cli_compare_accepts_engine(capsys, tmp_path):
    path = tmp_path / "metrics.json"
    code = main([
        "compare", "H1", "--profiles", "2", "--duration", "30",
        "--engine", "event", "--metrics-json", str(path),
    ])
    assert code == 0
    payload = path.read_text()
    assert "session.dispatches" in payload
