"""Event-engine throughput: dispatches instead of blind tick scans.

Times the full paper grid (12 services x 14 profiles) two ways — the
serial tick loop (the oracle) and the event-driven engine — and writes
``benchmarks/BENCH_event.json`` as a regression baseline.

The quantity of interest is *executed steps*: loop iterations spent
scanning for a state change rather than producing one.

* serial: every executed tick is a scan step — the loop runs the full
  network -> RRC -> player pipeline to discover whether anything
  happened (``ticks_executed``).
* event engine: a dispatched tick is executed *because* an event was
  predicted there, so only the dispatches that turn out to be
  unattributable ("noop" in the post-hoc classification) are blind.

Sessions are built up front (warm encode cache) so the walls time the
run loops only; record equality across both modes is asserted at full
grid scale.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.parallel import RunSpec, TickStats, record_from_result
from repro.net.traces import PROFILE_COUNT
from repro.services import ALL_SERVICE_NAMES

from benchmarks.conftest import bench_env, once

GRID_DURATION_S = 45.0
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_event.json"

EXECUTED_STEPS_DEFINITION = (
    "Loop iterations spent scanning for a state change rather than "
    "producing one. serial: ticks_executed (every executed tick runs "
    "the full pipeline to find out whether anything changed). "
    "event: dispatches classified 'noop' (ticks executed on a predicted "
    "event that produced no attributable state change)."
)


def _grid_specs(**overrides):
    return [
        RunSpec(
            service=name,
            profile_id=profile_id,
            duration_s=GRID_DURATION_S,
            **overrides,
        )
        for name in ALL_SERVICE_NAMES
        for profile_id in range(1, PROFILE_COUNT + 1)
    ]


def _run_grid(specs):
    """Build everything first (warm encode cache), then time the runs."""
    sessions = [spec.build() for spec in specs]
    start = time.perf_counter()
    records = [
        record_from_result(spec, session.run(spec.duration_s))
        for session, spec in zip(sessions, specs)
    ]
    wall = time.perf_counter() - start
    stats = TickStats.ZERO
    for session in sessions:
        stats = stats + TickStats.from_session(session)
    return records, sessions, stats, wall


def _mode_entry(stats, wall, serial_wall, executed_steps):
    return {
        "wall_s": wall,
        "speedup_vs_serial": serial_wall / wall,
        "ticks_executed": stats.ticks_executed,
        "ticks_simulated": stats.ticks_simulated,
        "executed_steps": executed_steps,
        "idle_fast_forward_jumps": stats.idle_fast_forward_jumps,
        "transfer_fast_forward_jumps": stats.transfer_fast_forward_jumps,
    }


MULTI_COMBOS = [
    ["H1", "D1"],
    ["H3", "D3", "S1"],
    ["H1", "D1", "D3", "H6"],
]
MULTI_DURATION_S = 180.0


def _run_multi(engine):
    from repro.core.fleet import FleetSpec, run_fleet
    from repro.net.schedule import StepSchedule

    schedule = StepSchedule.single_step(8_000_000, 1_500_000, 60.0)
    start = time.perf_counter()
    results = [
        list(run_fleet(
            FleetSpec(services=tuple(combo), schedule=schedule,
                      duration_s=MULTI_DURATION_S,
                      content_duration_s=90.0, engine=engine),
            keep_results=True,
        ).results)
        for combo in MULTI_COMBOS
    ]
    return results, time.perf_counter() - start


def _multi_signature(results):
    return [
        [
            (
                client.client_id,
                client.qoe,
                tuple(client.player.events.events),
                tuple(client.player.ui_samples),
            )
            for client in clients
        ]
        for clients in results
    ]


def _multi_section():
    """Shared-link clients under both engines: identity plus speedup."""
    tick_results, tick_wall = _run_multi("tick")
    event_results, event_wall = _run_multi("event")
    return {
        "combos": MULTI_COMBOS,
        "duration_s": MULTI_DURATION_S,
        "tick_wall_s": tick_wall,
        "event_wall_s": event_wall,
        "event_speedup_vs_tick": tick_wall / event_wall,
        "results_identical": (
            _multi_signature(tick_results) == _multi_signature(event_results)
        ),
    }


def test_perf_event_engine(benchmark, show):
    serial_specs = _grid_specs(engine="tick")
    event_specs = _grid_specs(engine="event")

    def run():
        serial_records, _, serial_stats, serial_wall = _run_grid(serial_specs)
        event_records, event_sessions, event_stats, event_wall = _run_grid(
            event_specs
        )

        dispatch_counts: dict[str, int] = {}
        stop_counts: dict[str, int] = {}
        dispatches = 0
        queue_pushes = 0
        queue_cancelled = 0
        queue_depth_max = 0
        for session in event_sessions:
            dispatches += session.ticks_executed
            queue_pushes += session.queue.pushed_total
            queue_cancelled += session.queue.cancelled_total
            queue_depth_max = max(queue_depth_max, session.max_queue_depth)
            for kind, count in session.dispatch_counts.items():
                dispatch_counts[kind] = dispatch_counts.get(kind, 0) + count
            for reason, count in session.advance_stop_counts.items():
                stop_counts[reason] = stop_counts.get(reason, 0) + count
        noop = dispatch_counts.get("noop", 0)

        multi = _multi_section()

        results = {
            "grid": {
                "services": len(ALL_SERVICE_NAMES),
                "profiles": PROFILE_COUNT,
                "runs": len(serial_specs),
                "duration_s": GRID_DURATION_S,
            },
            "executed_steps_definition": EXECUTED_STEPS_DEFINITION,
            "serial": _mode_entry(
                serial_stats, serial_wall, serial_wall,
                serial_stats.ticks_executed,
            ),
            "event": {
                **_mode_entry(event_stats, event_wall, serial_wall, noop),
                "events_dispatched": dispatches,
                "dispatch_counts": dispatch_counts,
                "advance_stop_counts": stop_counts,
                "queue_pushes": queue_pushes,
                "queue_cancelled": queue_cancelled,
                "queue_depth_max": queue_depth_max,
                "pushes_per_dispatch": queue_pushes / max(1, dispatches),
            },
            "multi_session": multi,
            "blind_step_reduction_vs_serial": (
                serial_stats.ticks_executed / max(1, noop)
            ),
            "records_identical": serial_records == event_records,
            "env": bench_env(),
        }
        return results

    results = once(benchmark, run)

    BASELINE_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))

    def row(label, key):
        entry = results[key]
        return [
            label,
            f"{entry['wall_s']:.2f}",
            f"{entry['ticks_executed']}",
            f"{entry['executed_steps']}",
            f"{entry['speedup_vs_serial']:.2f}",
        ]

    show(
        "Event engine (full grid, blind steps vs dispatches)",
        ["mode", "wall s", "executed ticks", "blind steps", "speedup"],
        [
            row("serial", "serial"),
            row("event", "event"),
        ],
    )

    assert results["records_identical"]
    # Every mode walks the same simulated timeline, tick for tick.
    assert (
        results["serial"]["ticks_simulated"]
        == results["event"]["ticks_simulated"]
    )
    assert results["serial"]["ticks_executed"] == results["serial"][
        "ticks_simulated"
    ]
    # Accounting closes: every dispatch is classified exactly once.
    assert (
        sum(results["event"]["dispatch_counts"].values())
        == results["event"]["events_dispatched"]
    )
    # The acceptance bars: the event engine must cut blind steps by at
    # least 10x against the tick oracle, and beat it on wall-clock.
    assert results["blind_step_reduction_vs_serial"] >= 10.0
    assert results["event"]["speedup_vs_serial"] > 1.05
    # Producer-pushed deadlines: each dispatch costs about one push
    # (one wake re-arm), not a cancel-and-repush across all producers.
    assert results["event"]["pushes_per_dispatch"] < 1.5
    # Shared-link sessions: the event loop must reproduce the tick
    # loop's ClientResults exactly and win on wall-clock.
    assert results["multi_session"]["results_identical"]
    assert results["multi_session"]["event_speedup_vs_tick"] > 1.0
