"""Trace-spine invariance across execution modes.

The tentpole contract: every semantic emission site (download spans,
ABR decisions, rebuffer spans, retries) fires only on serially-executed
ticks, so a tick-oracle run and an event-engine run of the same spec
produce *identical* semantic traces — the event engine only adds
``event_jump`` meta events whose boundaries cover the batched windows.
Likewise, per-run metrics are pure functions of the spec, so a parallel
sweep aggregates to exactly the serial sweep's snapshot.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.faults import FaultSpec, SeededErrors
from repro.core.parallel import RunSpec, sweep_grid
from repro.core.run import aggregate_metrics, execute, run_one
from repro.obs import semantic_trace

PROFILE_ID = 9
DURATION_S = 45.0

ALL_SERVICE_NAMES = (
    "H1", "H2", "H3", "H4", "H5", "H6",
    "D1", "D2", "D3", "D4", "S1", "S2",
)


def _traces_for(spec):
    serial = run_one(
        replace(spec, engine="tick"), tracer=True, keep_result=False
    )
    event = run_one(
        replace(spec, engine="event"), tracer=True, keep_result=False
    )
    return serial, event


@pytest.mark.parametrize("name", ALL_SERVICE_NAMES)
def test_semantic_trace_invariant_across_execution_modes(name):
    spec = RunSpec(service=name, profile_id=PROFILE_ID, duration_s=DURATION_S)
    serial, event = _traces_for(spec)
    reference = semantic_trace(serial.trace)
    assert reference, f"{name}: serial trace is empty"
    assert semantic_trace(event.trace) == reference
    # The serial run never batches, so it carries no meta events.
    assert all(e.kind != "event_jump" for e in serial.trace)


def test_event_jump_spans_cover_batched_windows():
    spec = RunSpec(
        service="H1",
        profile_id=PROFILE_ID,
        duration_s=DURATION_S,
        engine="event",
    )
    outcome = run_one(spec, tracer=True, keep_result=False)
    jumps = [event for event in outcome.trace if event.kind == "event_jump"]
    assert jumps, "event-engine H1 run produced no event_jump events"
    assert {jump.layer for jump in jumps} <= {"idle", "stalled", "transfer"}
    assert "transfer" in {jump.layer for jump in jumps}
    for jump in jumps:
        assert jump.ticks > 0
        assert jump.end_s > jump.at
        # Window length matches the tick count (dt = 0.1).
        assert jump.end_s - jump.at == pytest.approx(jump.ticks * spec.dt)
    # The jump accounting matches the session's tick stats.
    assert sum(j.ticks for j in jumps) == (
        outcome.tick_stats.idle_fast_forwarded_ticks
        + outcome.tick_stats.transfer_fast_forwarded_ticks
    )


def test_trace_invariance_under_faults():
    """Retry and rebuffer spans survive batching unchanged."""
    spec = RunSpec(
        service="H2",
        profile_id=2,
        duration_s=60.0,
        faults=FaultSpec(seeded_errors=(SeededErrors(rate=0.25),)),
    )
    serial, event = _traces_for(spec)
    reference = semantic_trace(serial.trace)
    assert semantic_trace(event.trace) == reference
    kinds = {event.kind for _, event in reference}
    assert "retry" in kinds, "seeded 25% error rate produced no retries"


def test_parallel_and_serial_sweeps_agree():
    specs = sweep_grid(
        ("H1", "D1"), (2, PROFILE_ID), duration_s=DURATION_S,
    )
    serial = execute(specs, workers=0, tracer=True)
    parallel = execute(specs, workers=2, tracer=True)
    # RunOutcome compares spec, record, tick stats, metrics and trace.
    assert parallel == serial
    assert aggregate_metrics(parallel) == aggregate_metrics(serial)


def test_aggregated_metrics_reflect_run_totals():
    specs = [
        RunSpec(service="H1", profile_id=PROFILE_ID, duration_s=DURATION_S),
        RunSpec(service="H4", profile_id=PROFILE_ID, duration_s=DURATION_S),
    ]
    outcomes = execute(specs, workers=0)
    merged = aggregate_metrics(outcomes)
    assert merged.value("session.runs") == 2
    assert merged.total("session.ticks") == sum(
        outcome.metrics.total("session.ticks") for outcome in outcomes
    )
    assert merged.total("player.segments_completed") == sum(
        outcome.metrics.total("player.segments_completed")
        for outcome in outcomes
    )
    assert merged.total("net.bytes_delivered") > 0


def test_tick_mode_counters_shift_with_fast_forward():
    """Executed vs batched tick counters move, semantic totals don't."""
    spec = RunSpec(service="H1", profile_id=PROFILE_ID, duration_s=DURATION_S)
    serial = run_one(replace(spec, engine="tick"), keep_result=False)
    jumped = run_one(replace(spec, engine="event"), keep_result=False)
    serial_metrics, ff_metrics = serial.metrics, jumped.metrics
    assert serial_metrics.total("session.ticks") == ff_metrics.total(
        "session.ticks"
    )
    assert ff_metrics.value("session.ticks", mode="executed") < (
        serial_metrics.value("session.ticks", mode="executed")
    )
    assert serial_metrics.value("session.ff_jumps", layer="idle") == 0
    assert ff_metrics.total("session.ff_jumps") > 0
    # Everything semantic is identical.
    assert ff_metrics.total("player.segments_completed") == (
        serial_metrics.total("player.segments_completed")
    )
    assert ff_metrics.total("net.bytes_delivered") == (
        serial_metrics.total("net.bytes_delivered")
    )
