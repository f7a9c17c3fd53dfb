"""Sweep engine: parallel == serial, encode cache, idle-window batching."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.experiment import ProfileRun, profile_sweep_specs
from repro.core.fleet import FleetSpec, run_fleet
from repro.core.run import execute
from repro.core.parallel import (
    RunSpec,
    SweepRunner,
    default_worker_count,
    execute_run_spec,
    parallel_map,
    sweep_grid,
)
from repro.core.events import EventDrivenSession
from tests.support import run_session
from repro.media.cache import AssetCache, asset_cache, clear_asset_cache
from repro.net.schedule import ConstantSchedule
from repro.net.traces import generate_trace
from repro.server.origin import OriginServer
from repro.services.profiles import build_service, get_service
from repro.util import mbps


# ---------------------------------------------------------------------------
# Serial vs parallel equality
# ---------------------------------------------------------------------------


def test_parallel_records_equal_serial_on_grid():
    """The ISSUE's acceptance grid: 3 services x 3 profiles, workers on/off."""
    specs = sweep_grid(["H1", "D2", "S2"], [1, 2, 3], duration_s=40.0)
    serial = SweepRunner(workers=0).run(specs)
    parallel = SweepRunner(workers=2).run(specs)
    assert serial == parallel
    assert [r.service_name for r in serial] == ["H1"] * 3 + ["D2"] * 3 + ["S2"] * 3
    assert [r.profile_id for r in serial] == [1, 2, 3] * 3


def test_sweep_grid_order_and_repetitions():
    specs = sweep_grid(["H1", "H2"], [4, 5], repetitions=2, duration_s=30.0)
    assert [(s.service, s.profile_id, s.repetition) for s in specs] == [
        ("H1", 4, 0), ("H1", 4, 1), ("H1", 5, 0), ("H1", 5, 1),
        ("H2", 4, 0), ("H2", 4, 1), ("H2", 5, 0), ("H2", 5, 1),
    ]
    # repetition shifts the default content seed
    assert specs[0].resolved_content_seed + 1 == specs[1].resolved_content_seed


def test_execute_run_spec_is_deterministic():
    spec = RunSpec(service="H4", profile_id=7, duration_s=40.0)
    assert execute_run_spec(spec) == execute_run_spec(spec)


def test_run_spec_config_overrides_apply():
    base = RunSpec(service="H2", profile_id=2, duration_s=60.0)
    tweaked = RunSpec(
        service="H2",
        profile_id=2,
        duration_s=60.0,
        config_overrides=(("startup_buffer_s", 2.0),),
    )
    record_base = execute_run_spec(base)
    record_tweaked = execute_run_spec(tweaked)
    assert record_tweaked.true_startup_delay_s < record_base.true_startup_delay_s


def test_parallel_map_orders_results():
    assert parallel_map(len, ["a", "bb", "ccc"], workers=2) == [1, 2, 3]
    assert parallel_map(len, ["a", "bb"], workers=0) == [1, 2]


def test_profile_sweep_parallel_matches_serial():
    profiles = [generate_trace(pid, 40) for pid in (1, 2, 3)]
    specs = profile_sweep_specs("S2", profiles, duration_s=40.0)
    serial = [
        ProfileRun.from_outcome(o)
        for o in execute(specs, workers=0, keep_results=True)
    ]
    parallel = [
        ProfileRun.from_outcome(o) for o in execute(specs, workers=2)
    ]
    assert [run.record for run in serial] == [run.record for run in parallel]
    # serial keeps the live session graph; parallel keeps only records
    assert all(run.result is not None for run in serial)
    assert all(run.result is None for run in parallel)
    assert [run.qoe for run in serial] == [run.qoe for run in parallel]


def test_default_worker_count_bounds():
    workers = default_worker_count()
    assert 0 <= workers <= 8


# ---------------------------------------------------------------------------
# Encode cache
# ---------------------------------------------------------------------------


def test_encode_cache_returns_identical_asset_for_identical_key():
    clear_asset_cache()
    spec = get_service("H3")
    first = spec.encode_asset(50.0, 21)
    second = spec.encode_asset(50.0, 21)
    assert first is second
    assert asset_cache().hits >= 1


def test_encode_cache_distinct_on_seed_change():
    spec = get_service("H3")
    assert spec.encode_asset(50.0, 21) is not spec.encode_asset(50.0, 22)


def test_encode_cache_distinct_on_duration_change():
    spec = get_service("H3")
    assert spec.encode_asset(50.0, 21) is not spec.encode_asset(60.0, 21)


def test_encode_cache_bypass_gives_equal_but_fresh_asset():
    spec = get_service("H3")
    cached = spec.encode_asset(50.0, 21)
    fresh = spec.encode_asset(50.0, 21, use_cache=False)
    assert fresh is not cached
    assert fresh == cached


def test_asset_cache_lru_eviction():
    cache = AssetCache(capacity=2)
    cache.get_or_encode("a", lambda: "A")
    cache.get_or_encode("b", lambda: "B")
    cache.get_or_encode("a", lambda: "A2")  # refresh a
    cache.get_or_encode("c", lambda: "C")  # evicts b
    assert cache.get_or_encode("a", lambda: "A3") == "A"
    assert cache.get_or_encode("b", lambda: "B2") == "B2"
    assert len(cache) == 2


# ---------------------------------------------------------------------------
# Idle-window batching: the event engine against the tick oracle
# ---------------------------------------------------------------------------


def _run_pair(name, schedule, duration_s, **kwargs):
    ticked = run_session(
        name, schedule, duration_s=duration_s, engine="tick", **kwargs
    )
    jumped = run_session(
        name, schedule, duration_s=duration_s, engine="event", **kwargs
    )
    return ticked, jumped


def _assert_identical(ticked, jumped):
    assert jumped.qoe == ticked.qoe
    assert jumped.duration_s == ticked.duration_s
    assert jumped.player_state == ticked.player_state
    assert jumped.player.ui_samples == ticked.player.ui_samples
    assert jumped.events.events == ticked.events.events
    assert jumped.rrc.energy_j == ticked.rrc.energy_j
    assert jumped.rrc.time_in_state == ticked.rrc.time_in_state
    assert jumped.player.position_s == ticked.player.position_s


@pytest.mark.parametrize("name", ["H1", "H2", "H4", "D1", "D3", "S1", "S2"])
def test_fast_forward_invariant_over_cellular_trace(name):
    """Tick-by-tick equality for pausing, SR and buffer-guard services."""
    ticked, jumped = _run_pair(name, generate_trace(5, 120), 120.0)
    _assert_identical(ticked, jumped)


def test_fast_forward_actually_skips_ticks():
    server = OriginServer()
    built = build_service("H4", server, duration_s=180.0, content_seed=11)
    session = EventDrivenSession(built, server, ConstantSchedule(mbps(8)))
    result = session.run(180.0)
    assert result.qoe is not None
    # H4 pauses for 20 s stretches and fully buffers the 180 s content:
    # most of the session is provably idle.
    assert session.fast_forwarded_ticks > 600
    # Segment starts replay inside the idle window, so the buffered tail
    # plays out in one jump: 29 dispatched ticks, one per completion
    # plus the first fetch (50 when every segment start ended a window).
    assert session.ticks_executed < 50


def test_fast_forward_invariant_on_fully_buffered_tail():
    schedule = ConstantSchedule(mbps(10))
    ticked, jumped = _run_pair(
        "H6", schedule, 240.0, content_duration_s=200.0
    )
    _assert_identical(ticked, jumped)


def test_shared_link_fast_forward_matches_ticked():
    schedule = ConstantSchedule(mbps(12))
    spec = FleetSpec(services=("H4", "S2"), schedule=schedule,
                     duration_s=90.0, content_duration_s=80.0, engine="tick")
    ticked = run_fleet(spec, keep_results=True).results
    jumped = run_fleet(replace(spec, engine="event"), keep_results=True).results
    for a, b in zip(ticked, jumped):
        assert a.qoe == b.qoe
        assert a.player.ui_samples == b.player.ui_samples
        assert a.player.events.events == b.player.events.events
