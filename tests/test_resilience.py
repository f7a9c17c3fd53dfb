"""Client resilience: retry policies, graceful degradation, the sweep.

Reproduces the section 3.3.3 finding: a fixed long retry interval
(H5-style) turns transient faults into long stalls, while capped
exponential backoff recovers quickly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.faults import ErrorBurst, FaultSpec, SeededErrors
from repro.core.parallel import RunSpec, execute_run_spec_with_result
from repro.blackbox.resilience import (
    run_resilience_sweep,
    standard_fault_scenarios,
)
from tests.support import run_session
from repro.net.faults import DeadAirWindow
from repro.net.http import ContentKind
from repro.net.schedule import ConstantSchedule
from repro.player.config import PlayerConfig
from repro.player.events import DownloadFailed, SegmentSkipped, SessionEnded
from repro.player.player import PlayerState
from repro.player.resilience import DegradationPolicy, RetryPolicy
from repro.services import get_service
from repro.util import DeterministicRng, mbps

# ---------------------------------------------------------------------------
# RetryPolicy units
# ---------------------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter_fraction=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(request_timeout_s=0.0)


def test_retry_policy_backoff_caps_at_max_delay():
    policy = RetryPolicy(base_delay_s=1.0, backoff_factor=2.0, max_delay_s=5.0)
    assert policy.delay_s(1, None) == 1.0
    assert policy.delay_s(2, None) == 2.0
    assert policy.delay_s(3, None) == 4.0
    assert policy.delay_s(4, None) == 5.0  # capped
    assert policy.delay_s(10, None) == 5.0


def test_retry_policy_exhaustion_and_legacy_fixed():
    capped = RetryPolicy(max_attempts=3)
    assert not capped.exhausted(2)
    assert capped.exhausted(3)
    legacy = RetryPolicy.fixed(6.0)
    assert legacy.max_attempts is None
    assert not legacy.exhausted(10_000)
    assert legacy.delay_s(7, None) == 6.0  # fixed: no growth


def test_retry_policy_jitter_is_bounded_and_seed_deterministic():
    policy = RetryPolicy(base_delay_s=2.0, jitter_fraction=0.25)
    delays_a = [policy.delay_s(1, DeterministicRng(9)) for _ in range(1)]
    delays_b = [policy.delay_s(1, DeterministicRng(9)) for _ in range(1)]
    assert delays_a == delays_b
    rng = DeterministicRng(9)
    for _ in range(50):
        delay = policy.delay_s(1, rng)
        assert 1.5 <= delay <= 2.5


def test_player_config_effective_policy_defaults_to_legacy_fixed():
    config = PlayerConfig(retry_interval_s=3.0)
    policy = config.effective_retry_policy
    assert policy.max_attempts is None
    assert policy.base_delay_s == 3.0
    explicit = PlayerConfig(retry_policy=RetryPolicy(max_attempts=4))
    assert explicit.effective_retry_policy.max_attempts == 4


def test_service_specs_build_capped_policies():
    h5 = get_service("H5").player_config()
    assert h5.effective_retry_policy.base_delay_s == 6.0
    assert h5.effective_retry_policy.max_attempts == 10
    h1 = get_service("H1").player_config()
    assert h1.effective_retry_policy.backoff_factor == 2.0
    assert h1.degradation.downswitch_on_failure
    s2 = get_service("S2").player_config()
    assert s2.degradation.skip_failed_segments


# ---------------------------------------------------------------------------
# Degradation behaviours end-to-end
# ---------------------------------------------------------------------------


def _strict_config(name, **retry_kwargs):
    """Service config with a tight budget and no degradation."""
    base = get_service(name).player_config()
    return replace(
        base,
        retry_policy=RetryPolicy(**retry_kwargs),
        degradation=DegradationPolicy(),
    )


def test_exhausted_budget_ends_session_with_download_failed():
    # Media errors from t=6 onward; 3 attempts 0.5 s apart burn out fast.
    faults = FaultSpec(error_bursts=(ErrorBurst(start_s=6.0, end_s=300.0),))
    result = run_session(
        "H1",
        ConstantSchedule(mbps(3)),
        duration_s=120.0,
        player_config=_strict_config("H1", max_attempts=3, base_delay_s=0.5),
        faults=faults,
    )
    assert result.player_state is PlayerState.ENDED
    ended = result.events.of_type(SessionEnded)
    assert ended and ended[-1].reason == "download failed"
    gave_up = [e for e in result.events.of_type(DownloadFailed) if e.gave_up]
    assert len(gave_up) == 1
    assert gave_up[0].attempts == 3


def test_unbounded_legacy_policy_never_gives_up():
    faults = FaultSpec(error_bursts=(ErrorBurst(start_s=6.0, end_s=300.0),))
    config = replace(
        get_service("H1").player_config(),
        retry_policy=None,  # fall back to legacy fixed-interval behaviour
        degradation=DegradationPolicy(),
    )
    result = run_session(
        "H1",
        ConstantSchedule(mbps(3)),
        duration_s=60.0,
        player_config=config,
        faults=faults,
    )
    assert result.player_state is not PlayerState.ENDED
    assert not any(e.gave_up for e in result.events.of_type(DownloadFailed))


def test_skip_failed_segments_jumps_playhead_and_keeps_playing():
    faults = FaultSpec(error_bursts=(ErrorBurst(start_s=10.0, end_s=14.0),))
    base = get_service("S2").player_config()
    config = replace(
        base,
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=1.0),
        degradation=DegradationPolicy(skip_failed_segments=True),
    )
    result = run_session(
        "S2",
        ConstantSchedule(mbps(2.5)),
        duration_s=90.0,
        player_config=config,
        faults=faults,
    )
    skips = result.events.of_type(SegmentSkipped)
    assert skips, "the failed segment should be skipped, not fatal"
    for skip in skips:
        assert skip.to_position_s > skip.from_position_s
    # The session must not die of "download failed": it either keeps
    # playing or reaches the natural end of the (shortened) content.
    assert result.player_state is not PlayerState.ENDED or (
        result.events.of_type(SessionEnded)[-1].reason == "content finished"
    )


def test_downswitch_on_failure_retries_at_lower_level():
    faults = FaultSpec(seeded_errors=(SeededErrors(rate=0.25, seed=3),))
    base = get_service("H1").player_config()
    config = replace(
        base,
        retry_policy=RetryPolicy(max_attempts=8, base_delay_s=0.5),
        degradation=DegradationPolicy(downswitch_on_failure=True),
    )
    result = run_session(
        "H1",
        ConstantSchedule(mbps(4)),
        duration_s=90.0,
        player_config=config,
        faults=faults,
    )
    assert result.events.of_type(DownloadFailed)
    assert result.playback_started
    assert result.player_state is not PlayerState.ENDED or (
        result.events.of_type(SessionEnded)[-1].reason == "content finished"
    )


def test_request_timeout_aborts_stalled_transfer():
    # Dead air freezes an in-flight segment; the timeout must abort and
    # count it as a failed attempt instead of waiting out the window.
    faults = FaultSpec(dead_air=(DeadAirWindow(6.0, 20.0),))
    config = replace(
        get_service("H1").player_config(),
        retry_policy=RetryPolicy(
            max_attempts=20, base_delay_s=0.5, backoff_factor=2.0,
            request_timeout_s=2.0,
        ),
    )
    result = run_session(
        "H1",
        ConstantSchedule(mbps(3)),
        duration_s=60.0,
        player_config=config,
        faults=faults,
    )
    failed = result.events.of_type(DownloadFailed)
    assert failed, "the stalled transfer should be aborted by the timeout"
    aborted = [flow for flow in result.proxy.flows if flow.aborted]
    assert aborted
    # Every abort happened ~request_timeout_s after its request started.
    for flow in aborted:
        assert flow.completed_at - flow.started_at <= 2.0 + 0.2


def test_manifest_outage_exhaustion_ends_session():
    faults = FaultSpec(
        error_bursts=(
            ErrorBurst(start_s=0.0, end_s=600.0, kinds=(ContentKind.MANIFEST,)),
        )
    )
    result = run_session(
        "H1",
        ConstantSchedule(mbps(3)),
        duration_s=120.0,
        player_config=_strict_config("H1", max_attempts=3, base_delay_s=0.5),
        faults=faults,
    )
    assert result.player_state is PlayerState.ENDED
    assert result.events.of_type(SessionEnded)[-1].reason == "manifest unavailable"
    assert not result.playback_started


def test_fixed_long_retry_stalls_longer_than_backoff():
    """The paper's root cause: H5's fixed 6 s interval vs capped backoff.

    Same service, same fault, same network — only the retry policy
    differs.  The fixed-interval player waits out its full interval
    with an empty buffer while the backoff player retries quickly.
    """
    base = get_service("H5").player_config()
    fixed_policy = RetryPolicy.fixed(6.0)
    backoff_policy = RetryPolicy(
        max_attempts=12, base_delay_s=0.5, backoff_factor=2.0, max_delay_s=8.0
    )

    # A media-error burst at startup delays first frame by the retry lag.
    burst = FaultSpec(error_bursts=(ErrorBurst(start_s=0.0, end_s=2.0),))
    schedule = ConstantSchedule(mbps(2.5))
    fixed = run_session(
        "H5", schedule, duration_s=60.0,
        player_config=replace(base, retry_policy=fixed_policy), faults=burst,
    )
    backoff = run_session(
        "H5", schedule, duration_s=60.0,
        player_config=replace(base, retry_policy=backoff_policy), faults=burst,
    )
    assert fixed.true_startup_delay_s > backoff.true_startup_delay_s + 2.0

    # Mid-run connection resets on a cellular profile: the fixed player
    # sits out 6 s with a draining buffer after every abort and stalls.
    storm = FaultSpec(reset_times=(18.0, 27.0, 36.0))
    def storm_run(policy):
        spec = RunSpec(
            service="H5", profile_id=9, duration_s=60.0,
            config_overrides=(("retry_policy", policy),), faults=storm,
        )
        return execute_run_spec_with_result(spec)[1]

    fixed_storm = storm_run(fixed_policy)
    backoff_storm = storm_run(backoff_policy)
    assert fixed_storm.true_stall_s > backoff_storm.true_stall_s + 3.0


# ---------------------------------------------------------------------------
# The resilience sweep
# ---------------------------------------------------------------------------


def test_standard_scenarios_are_well_formed():
    scenarios = standard_fault_scenarios(120.0)
    names = [scenario.name for scenario in scenarios]
    assert len(names) == len(set(names))
    assert "baseline" in names
    baseline = next(s for s in scenarios if s.name == "baseline")
    assert baseline.faults is None
    for scenario in scenarios:
        if scenario.faults is not None:
            assert (
                scenario.faults.has_origin_faults
                or scenario.faults.has_transport_faults
            )


def test_sweep_reproducible_across_workers():
    scenarios = [
        s for s in standard_fault_scenarios(40.0)
        if s.name in ("baseline", "reset-storm")
    ]
    serial = run_resilience_sweep(
        ["H5", "S2"], scenarios, profile_id=9, duration_s=40.0, workers=0
    )
    parallel = run_resilience_sweep(
        ["H5", "S2"], scenarios, profile_id=9, duration_s=40.0, workers=2
    )
    assert serial == parallel


def test_sweep_report_shape_and_json():
    scenarios = [
        s for s in standard_fault_scenarios(40.0) if s.name == "baseline"
    ]
    report = run_resilience_sweep(
        ["H1"], scenarios, profile_id=9, duration_s=40.0
    )
    assert len(report.cells) == 1
    cell = report.cell("H1", "baseline")
    assert cell.download_failures == 0
    assert cell.final_state == "playing"
    payload = report.to_json()
    assert payload["cells"][0]["service"] == "H1"
    assert payload["engine"] == "event"
    assert "fast_forward" not in payload
    rendered = report.render()
    assert "H1" in rendered and "baseline" in rendered
