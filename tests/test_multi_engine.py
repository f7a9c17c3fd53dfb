"""Event-driven MultiSession: byte-identity against the tick oracle.

The shared-queue event loop must reproduce the lock-step tick loop's
``ClientResult``s exactly — per-client QoE, player event logs, UI
samples, attributed downloads, and the session-level flow capture —
while executing only event instants as real ticks.  The grid here
crosses service combinations with shared-link bandwidth shapes and the
full fault plane, mirroring the single-session identity suite.
"""

from __future__ import annotations

import pytest

from repro.analysis.faults import (
    DeadAirWindow,
    ErrorBurst,
    FaultSpec,
    LatencySpikeWindow,
    SeededErrors,
    SeededTruncation,
)
from repro.analysis.serialize import capture_to_json
from repro.core.fleet import FleetSpec, run_fleet
from repro.core.multi import (
    EventDrivenMultiSession,
    MultiSession,
)
from repro.net.schedule import ConstantSchedule, StepSchedule, TraceSchedule
from repro.server.origin import OriginServer
from repro.services.profiles import build_service, get_service
from repro.util import mbps

DURATION_S = 120.0
CONTENT_S = 60.0

SCHEDULES = {
    "constant": ConstantSchedule(mbps(6)),
    "step_down": StepSchedule.single_step(mbps(8), mbps(1.5), 45.0),
    "trace": TraceSchedule.from_samples(
        [mbps(5), mbps(2), mbps(7), mbps(0.8), mbps(4)], interval_s=20.0
    ),
}

COMBOS = [
    ["H1", "D1"],          # persistent HLS + parallel-pool DASH
    ["H3", "D3", "S1"],    # re-established HLS + split DASH + Smooth
    ["D2", "D2"],          # identical clients (fairness case)
    ["H6", "D1", "D3"],    # three-way contention
]

GRID_FAULTS = FaultSpec(
    error_bursts=(ErrorBurst(start_s=14.0, end_s=17.0),),
    seeded_errors=(SeededErrors(rate=0.06, seed=101),),
    truncation=SeededTruncation(rate=0.08, seed=83),
    dead_air=(DeadAirWindow(21.3, 26.1),),
    latency_spikes=(LatencySpikeWindow(8.0, 12.5, 0.35),),
    reset_times=(19.17, 33.0),
)


def _run_clients(combo, schedule, *, engine, faults=None):
    spec = FleetSpec(
        services=tuple(combo),
        schedule=schedule,
        duration_s=DURATION_S,
        content_duration_s=CONTENT_S,
        faults=faults,
        engine=engine,
    )
    return list(run_fleet(spec, keep_results=True).results)


def _run_pair(combo, schedule, faults=None):
    tick = _run_clients(combo, schedule, engine="tick", faults=faults)
    event = _run_clients(combo, schedule, engine="event", faults=faults)
    return tick, event


def _assert_identical(tick_results, event_results):
    assert len(tick_results) == len(event_results)
    for tick, event in zip(tick_results, event_results):
        assert event.client_id == tick.client_id
        assert event.service_name == tick.service_name
        assert event.qoe == tick.qoe
        assert event.player.state == tick.player.state
        assert event.player.events.events == tick.player.events.events
        assert event.player.ui_samples == tick.player.ui_samples
        assert [d.__dict__ for d in event.analyzer.downloads] == [
            d.__dict__ for d in tick.analyzer.downloads
        ]


@pytest.mark.parametrize("combo", COMBOS, ids=lambda c: "+".join(c))
@pytest.mark.parametrize("schedule_name", sorted(SCHEDULES))
def test_multi_identity_grid(combo, schedule_name):
    tick, event = _run_pair(combo, SCHEDULES[schedule_name])
    _assert_identical(tick, event)


@pytest.mark.parametrize("combo", COMBOS, ids=lambda c: "+".join(c))
def test_multi_identity_under_faults(combo):
    tick, event = _run_pair(
        combo, SCHEDULES["step_down"], faults=GRID_FAULTS
    )
    _assert_identical(tick, event)


def _build_sessions(combo, schedule, faults=None):
    """Two sessions over identical content, one per engine."""
    sessions = []
    for cls in (MultiSession, EventDrivenMultiSession):
        server = OriginServer()
        builts = [
            build_service(
                get_service(name),
                server,
                duration_s=CONTENT_S,
                content_seed=11 + index,
                base_url=f"https://cdn{index}.example.com",
            )
            for index, name in enumerate(combo)
        ]
        sessions.append(cls(builts, server, schedule, faults=faults))
    return sessions


def test_shared_capture_is_byte_identical():
    """The session-level flow capture (all clients interleaved) matches."""
    tick_session, event_session = _build_sessions(
        ["H1", "D3"], SCHEDULES["trace"], faults=GRID_FAULTS
    )
    tick_results = tick_session.run(DURATION_S)
    event_results = event_session.run(DURATION_S)
    _assert_identical(tick_results, event_results)
    tick_capture = capture_to_json(
        tick_session.proxy.flows,
        [s for r in tick_results for s in r.player.ui_samples],
    )
    event_capture = capture_to_json(
        event_session.proxy.flows,
        [s for r in event_results for s in r.player.ui_samples],
    )
    assert event_capture == tick_capture


def test_event_multi_executes_fewer_ticks():
    tick_session, event_session = _build_sessions(
        ["H1", "D1", "D3"], SCHEDULES["step_down"]
    )
    tick_session.run(DURATION_S)
    event_session.run(DURATION_S)
    # Both engines walk the same simulated timeline...
    assert (
        event_session.ticks_executed
        + event_session.fast_forwarded_ticks
        + event_session.transfer_fast_forwarded_ticks
        == tick_session.ticks_executed
    )
    # ...but the event loop dispatches only event instants.
    assert event_session.ticks_executed < tick_session.ticks_executed
    assert event_session.events_dispatched == event_session.ticks_executed
    assert event_session.queue.pushed_total > 0
    assert event_session.max_queue_depth >= len(event_session.players)


def test_cell_labels_its_dispatches():
    """A cell runs the single session's event loop, labels included."""
    _, event_session = _build_sessions(["H1", "D1"], SCHEDULES["step_down"])
    event_session.run(DURATION_S)
    counts = event_session.dispatch_counts
    assert sum(counts.values()) == event_session.events_dispatched
    assert counts.get("transfer_complete", 0) > 0
    assert event_session.advance_stop_counts


def test_wake_dirty_check_skips_untouched_players():
    """Bystander players keep their wakes across another client's ticks.

    With per-producer ownership the push volume must scale with state
    changes, not with dispatches x players: well under one push per
    player per dispatched tick.
    """
    _, event_session = _build_sessions(["H1", "D1", "D3"], SCHEDULES["constant"])
    event_session.run(DURATION_S)
    pushes = event_session.queue.pushed_total
    dispatches = event_session.events_dispatched
    players = len(event_session.players)
    assert pushes < dispatches * players


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        FleetSpec(
            services=("H1",), schedule=SCHEDULES["constant"],
            duration_s=10.0, engine="warp",
        )

