"""The unified run API.

One construction path (``RunSpec.build``), one execution surface
(``run_one`` / ``execute``), typed errors for replay-path field access,
and the ``player_config`` + ``workers>0`` footgun fixed by diffing a
derived config into picklable ``config_overrides``.  The historical
``run_session`` / ``run_service_over_profiles`` shims are retired; the
tests below pin that they stay gone.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.experiment import (
    ProfileRun,
    profile_sweep_specs,
)
from repro.core.parallel import (
    RunSpec,
    record_from_result,
)
from repro.core.run import RunOutcome, execute, run_one
from repro.core.session import ResultFieldMissing, SessionResult
from tests.support import run_session
from repro.net.schedule import ConstantSchedule
from repro.net.traces import generate_trace
from repro.player.config import (
    PlayerConfig,
    UnpicklableConfigOverride,
    config_overrides_between,
)
from repro.player.player import PlayerState
from repro.services import get_service
from repro.util import mbps

DURATION_S = 40.0


def _spec(**kwargs):
    defaults = dict(service="H1", profile_id=9, duration_s=DURATION_S)
    defaults.update(kwargs)
    return RunSpec(**defaults)


# ---------------------------------------------------------------------------
# RunSpec.build + run_one
# ---------------------------------------------------------------------------


def test_build_materialises_a_runnable_session():
    session = _spec().build()
    result = session.run(DURATION_S)
    assert result.player_state in (PlayerState.ENDED, PlayerState.PLAYING)
    assert result.qoe is not None


def test_run_one_returns_full_outcome():
    outcome = run_one(_spec())
    assert isinstance(outcome, RunOutcome)
    assert outcome.record.service_name == "H1"
    assert outcome.result is not None  # keep_result defaults to True
    assert outcome.trace == ()  # tracing off by default
    assert outcome.metrics.value("session.runs") == 1
    assert outcome.tick_stats.ticks_executed > 0


def test_schedule_beats_profile_id():
    spec = _spec(schedule=ConstantSchedule(mbps(4.0)))
    assert spec.resolved_schedule() == ConstantSchedule(mbps(4.0))


# ---------------------------------------------------------------------------
# execute
# ---------------------------------------------------------------------------


def test_execute_matches_legacy_sweep_runner():
    # A serial sweep is exactly one run_one per spec, in spec order.
    specs = [_spec(), _spec(service="S1")]
    outcomes = execute(specs, workers=0)
    assert outcomes == [run_one(spec, keep_result=False) for spec in specs]


def test_execute_validates_arguments():
    with pytest.raises(ValueError):
        execute([_spec()], workers=-1)
    with pytest.raises(ValueError, match="keep_results"):
        execute([_spec()], workers=2, keep_results=True)


def test_execute_keep_results_serial_only():
    outcomes = execute([_spec()], workers=0, keep_results=True)
    assert outcomes[0].result is not None
    outcomes = execute([_spec()], workers=0)
    assert outcomes[0].result is None


# ---------------------------------------------------------------------------
# Retired shims
# ---------------------------------------------------------------------------


def test_shims_are_gone():
    """The deprecated entry points were removed, not just discouraged."""
    import repro
    import repro.core
    import repro.core.experiment
    import repro.core.parallel
    import repro.core.pool
    import repro.core.session
    import repro.obs

    for module in (repro, repro.core, repro.core.session):
        assert not hasattr(module, "run_session")
    for module in (repro, repro.core, repro.core.experiment):
        assert not hasattr(module, "run_service_over_profiles")
    # The legacy runners and the in-program profiler: execute/run_one
    # are the only way to run specs, and no option brings them back.
    legacy = (
        "SweepRunner",
        "parallel_map",
        "execute_run_spec",
        "execute_run_spec_with_result",
        "execute_run_spec_with_stats",
        "execute_distributed",
        "PhaseProfiler",
        "PhaseStat",
    )
    for module in (repro, repro.core, repro.core.parallel, repro.obs):
        for name in legacy:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # The ProcessPoolExecutor pool and its warm keys: local workers are
    # forked sweep workers, one more lane of the one sweep loop.
    for name in ("WorkerPool", "worker_pool"):
        for module in (repro.core, repro.core.pool):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for call in (
        lambda: execute([_spec()], profile=True),
        lambda: execute([_spec()], chunksize=4),
        lambda: run_one(_spec(), profile=True),
    ):
        with pytest.raises(TypeError):
            call()


def test_support_run_session_matches_run_one():
    trace = generate_trace(9, int(DURATION_S))
    helper = run_session("H1", trace, duration_s=DURATION_S)
    modern = run_one(_spec(trace=trace)).result
    assert helper.qoe == modern.qoe
    assert helper.events.events == modern.events.events


def test_profile_sweep_specs_plus_execute_keeps_live_results():
    profiles = [generate_trace(2, int(DURATION_S))]
    specs = profile_sweep_specs("S2", profiles, duration_s=DURATION_S)
    runs = [
        ProfileRun.from_outcome(outcome)
        for outcome in execute(specs, workers=0, keep_results=True)
    ]
    assert [run.profile_id for run in runs] == [2]
    assert all(run.result is not None for run in runs)


# ---------------------------------------------------------------------------
# The player_config + workers footgun
# ---------------------------------------------------------------------------


def test_derived_player_config_works_with_workers():
    """A replace()-derived config rides workers>0 as picklable overrides."""
    base = get_service("H1").player_config()
    tweaked = replace(base, startup_buffer_s=4.0, retry_interval_s=1.0)
    overrides = config_overrides_between(base, tweaked)
    profiles = [generate_trace(1, 30)]
    specs = profile_sweep_specs(
        "H1", profiles, duration_s=30.0, config_overrides=overrides
    )
    parallel = execute(specs, workers=2)
    serial = execute(specs, workers=0)
    assert [o.record for o in parallel] == [o.record for o in serial]


def test_config_overrides_between_diffs_plain_fields():
    base = get_service("H1").player_config()
    tweaked = replace(base, startup_buffer_s=4.0)
    overrides = config_overrides_between(base, tweaked)
    assert overrides == (("startup_buffer_s", 4.0),)
    assert config_overrides_between(base, base) == ()
    with pytest.raises(UnpicklableConfigOverride):
        config_overrides_between(base, PlayerConfig(name="x"))
    assert issubclass(UnpicklableConfigOverride, ValueError)


def test_spec_config_overrides_reach_the_player():
    spec = _spec(config_overrides=(("startup_buffer_s", 4.0),))
    session = spec.build()
    assert session.player.config.startup_buffer_s == 4.0


# ---------------------------------------------------------------------------
# ResultFieldMissing
# ---------------------------------------------------------------------------


def test_replay_result_raises_typed_error():
    bare = SessionResult(
        service_name="H1",
        duration_s=10.0,
        player_state=PlayerState.ENDED,
        replay_path="a deserialized sweep record",
    )
    with pytest.raises(ResultFieldMissing, match="events") as excinfo:
        _ = bare.true_stall_s
    message = str(excinfo.value)
    assert "a deserialized sweep record" in message
    assert "workers=0" in message  # tells the caller how to get it back
    with pytest.raises(ResultFieldMissing, match="analyzer, ui"):
        _ = bare.buffer_estimator


def test_record_from_result_names_missing_fields():
    bare = SessionResult(
        service_name="H1", duration_s=10.0, player_state=PlayerState.ENDED
    )
    with pytest.raises(ResultFieldMissing, match="events, qoe, rrc, player"):
        record_from_result(_spec(), bare)


def test_profile_run_without_payload_raises():
    run = ProfileRun(service_name="H1", profile_id=1, repetition=0)
    with pytest.raises(ResultFieldMissing):
        _ = run.qoe


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_trace_renders_timeline(capsys, tmp_path):
    jsonl = tmp_path / "trace.jsonl"
    code = main([
        "trace", "H1", "--bandwidth", "4", "--duration", "30",
        "--jsonl", str(jsonl),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "download" in out and "abr" in out
    lines = jsonl.read_text().strip().splitlines()
    assert lines and json.loads(lines[0])["kind"]


def test_cli_compare_writes_metrics_json(capsys, tmp_path):
    path = tmp_path / "metrics.json"
    code = main([
        "compare", "H1", "--profiles", "2", "--duration", "30",
        "--metrics-json", str(path),
    ])
    assert code == 0
    payload = json.loads(path.read_text())
    counters = {row["name"]: row for row in payload["counters"]}
    assert counters["session.runs"]["value"] == 1
    assert capsys.readouterr().out  # comparison table printed


def test_cli_resilience_writes_metrics_json(capsys, tmp_path):
    path = tmp_path / "metrics.json"
    code = main([
        "resilience", "H1", "--scenarios", "baseline", "--duration", "30",
        "--metrics-json", str(path),
    ])
    assert code == 0
    payload = json.loads(path.read_text())
    assert any(row["name"] == "session.runs" for row in payload["counters"])


def test_cli_fleet_writes_json(capsys, tmp_path):
    path = tmp_path / "fleet.json"
    code = main([
        "fleet", "H1", "D1", "--clients", "4", "--cell-mbps", "4",
        "--duration", "20", "--content-duration", "10",
        "--json", str(path),
    ])
    assert code == 0
    payload = json.loads(path.read_text())
    assert {"clients", "population", "tick_stats"} <= payload.keys()
    assert capsys.readouterr().out  # population summary printed
