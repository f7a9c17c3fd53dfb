"""The composable fault plane: models, wiring, and batching safety.

The load-bearing guarantee is the change-point contract: no injected
fault may ever be batched across by the event engine, so a faulted run
serializes byte-identically on the event engine and the tick oracle.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.analysis.faults import (
    ErrorBurst,
    FaultInjectingHandler,
    FaultSpec,
    FlakyOriginHandler,
    SeededErrors,
    SeededTruncation,
)
from repro.analysis.serialize import capture_to_json
from repro.core.parallel import RunSpec
from repro.core.run import run_one
from tests.support import run_session
from repro.net.clock import Clock
from repro.net.faults import (
    DeadAirWindow,
    LatencySpikeWindow,
    TransportFaultPlane,
)
from repro.net.http import (
    ContentKind,
    HttpRequest,
    HttpStatus,
    ResponsePlan,
)
from repro.net.schedule import ConstantSchedule
from repro.player.events import DownloadFailed
from repro.server.origin import OriginServer
from repro.services import ALL_SERVICE_NAMES
from repro.util import mbps

# ---------------------------------------------------------------------------
# Content kinds on response plans (satellite: explicit classification)
# ---------------------------------------------------------------------------


def test_response_plan_factories_stamp_content_kinds():
    assert ResponsePlan.ok_text("m").content is ContentKind.MANIFEST
    assert ResponsePlan.ok_data(b"x").content is ContentKind.INDEX
    assert ResponsePlan.ok_opaque(100).content is ContentKind.MEDIA
    assert ResponsePlan.error(HttpStatus.NOT_FOUND).content is ContentKind.ERROR


def test_flaky_origin_classifies_by_declared_kind_not_payload_shape():
    class Origin:
        def __init__(self, plan):
            self.plan = plan

        def handle(self, request):
            return self.plan

    # A manifest is never failed even at rate 1.0 ...
    flaky = FlakyOriginHandler(
        Origin(ResponsePlan.ok_text("#EXTM3U")), error_rate=1.0
    )
    assert flaky.handle(HttpRequest(url="u")).is_success
    # ... an opaque media response always is.
    flaky = FlakyOriginHandler(Origin(ResponsePlan.ok_opaque(10)), error_rate=1.0)
    assert not flaky.handle(HttpRequest(url="u")).is_success
    assert flaky.injected_errors == 1


# ---------------------------------------------------------------------------
# Transport fault plane units
# ---------------------------------------------------------------------------


def test_dead_air_window_is_half_open():
    plane = TransportFaultPlane(dead_air=(DeadAirWindow(2.0, 4.0),))
    assert not plane.dead_air_at(1.9)
    assert plane.dead_air_at(2.0)
    assert plane.dead_air_at(3.999)
    assert not plane.dead_air_at(4.0)


def test_latency_spikes_sum_when_overlapping():
    plane = TransportFaultPlane(
        latency_spikes=(
            LatencySpikeWindow(1.0, 5.0, 0.2),
            LatencySpikeWindow(4.0, 6.0, 0.3),
        )
    )
    assert plane.extra_latency_at(0.5) == 0.0
    assert plane.extra_latency_at(2.0) == pytest.approx(0.2)
    assert plane.extra_latency_at(4.5) == pytest.approx(0.5)
    assert plane.extra_latency_at(5.5) == pytest.approx(0.3)


def test_resets_pop_once_and_report_as_change_points_until_fired():
    plane = TransportFaultPlane(reset_times=(3.0, 3.0, 7.0))
    # An unfired reset is a change point even when already due: the
    # tick must run serially so the cursor advances as in serial runs.
    assert plane.next_change_at(5.0) == 3.0
    assert plane.resets_due(3.0) == 2
    assert plane.next_change_at(5.0) == 7.0
    assert plane.resets_due(6.9) == 0
    assert plane.resets_due(7.0) == 1
    assert plane.next_change_at(100.0) == math.inf


def test_next_change_at_sees_dead_air_boundaries():
    plane = TransportFaultPlane(dead_air=(DeadAirWindow(2.0, 4.0),))
    assert plane.next_change_at(0.0) == 2.0
    assert plane.next_change_at(2.0) == 4.0  # inside: next change is the end
    assert plane.next_change_at(4.0) == math.inf


def test_fault_window_validation():
    with pytest.raises(ValueError):
        DeadAirWindow(5.0, 5.0)
    with pytest.raises(ValueError):
        LatencySpikeWindow(3.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        ErrorBurst(start_s=4.0, end_s=4.0)
    with pytest.raises(ValueError):
        SeededErrors(rate=1.5)
    with pytest.raises(ValueError):
        SeededTruncation(rate=0.5, min_fraction=0.9, max_fraction=0.2)


# ---------------------------------------------------------------------------
# Origin-side injection
# ---------------------------------------------------------------------------


class _StubOrigin:
    def __init__(self, plan):
        self.plan = plan

    def handle(self, request):
        return self.plan


def test_error_burst_hits_only_its_window_and_kinds():
    clock = Clock()
    spec = FaultSpec(
        error_bursts=(ErrorBurst(start_s=1.0, end_s=2.0),)
    )
    handler = FaultInjectingHandler(_StubOrigin(ResponsePlan.ok_opaque(9)), clock, spec)
    assert handler.handle(HttpRequest(url="u")).is_success  # t=0: before
    for _ in range(10):
        clock.tick()  # t=1.0
    plan = handler.handle(HttpRequest(url="u"))
    assert not plan.is_success
    assert plan.status is HttpStatus.SERVICE_UNAVAILABLE
    # Manifests pass through untouched inside the same window.
    manifest_handler = FaultInjectingHandler(
        _StubOrigin(ResponsePlan.ok_text("m")), clock, spec
    )
    assert manifest_handler.handle(HttpRequest(url="u")).is_success
    for _ in range(10):
        clock.tick()  # t=2.0: burst over
    assert handler.handle(HttpRequest(url="u")).is_success
    assert handler.injected_errors == 1


def test_truncation_shortens_body_and_marks_plan():
    clock = Clock()
    spec = FaultSpec(truncation=SeededTruncation(rate=1.0, seed=5))
    handler = FaultInjectingHandler(
        _StubOrigin(ResponsePlan.ok_opaque(1000)), clock, spec
    )
    plan = handler.handle(HttpRequest(url="u"))
    assert plan.truncated
    assert plan.is_success  # good headers, short body
    assert 0 < plan.size_bytes < 1000
    assert handler.truncated_responses == 1
    # Deterministic: a fresh handler with the same spec draws the same sizes.
    again = FaultInjectingHandler(
        _StubOrigin(ResponsePlan.ok_opaque(1000)), clock, spec
    )
    assert again.handle(HttpRequest(url="u")).size_bytes == plan.size_bytes


def test_fault_spec_sides():
    origin_only = FaultSpec(seeded_errors=(SeededErrors(rate=0.1),))
    assert origin_only.has_origin_faults and not origin_only.has_transport_faults
    assert origin_only.transport_plane() is None
    transport_only = FaultSpec(reset_times=(3.0,))
    assert transport_only.has_transport_faults and not transport_only.has_origin_faults
    assert transport_only.transport_plane() is not None


# ---------------------------------------------------------------------------
# End-to-end fault behaviour
# ---------------------------------------------------------------------------


def test_connection_reset_aborts_inflight_transfer_and_recovers():
    faults = FaultSpec(reset_times=(3.0,))
    result = run_session(
        "H1", ConstantSchedule(mbps(1.2)), duration_s=40.0, faults=faults
    )
    failed = result.events.of_type(DownloadFailed)
    assert failed, "the reset should abort an in-flight download"
    assert not any(event.gave_up for event in failed)
    aborted_flows = [flow for flow in result.proxy.flows if flow.aborted]
    assert aborted_flows and not any(flow.success for flow in aborted_flows)
    assert result.playback_started


def test_truncated_download_is_failure_and_is_retried():
    faults = FaultSpec(truncation=SeededTruncation(rate=0.3, seed=7))
    result = run_session(
        "H2", ConstantSchedule(mbps(3)), duration_s=40.0, faults=faults
    )
    truncated = [flow for flow in result.proxy.flows if flow.truncated]
    assert truncated and not any(flow.success for flow in truncated)
    assert result.events.of_type(DownloadFailed)
    assert result.playback_started


def test_dead_air_matches_zero_bandwidth_semantics():
    # Dead air long enough to drain H2's shallow buffer must stall it.
    faults = FaultSpec(dead_air=(DeadAirWindow(12.0, 32.0),))
    clean = run_session("H2", ConstantSchedule(mbps(3)), duration_s=45.0)
    faulted = run_session(
        "H2", ConstantSchedule(mbps(3)), duration_s=45.0, faults=faults
    )
    assert clean.true_stall_count == 0
    assert faulted.true_stall_count > 0


def test_latency_spike_stretches_requests_issued_in_window():
    # Every request H2 issues inside the window pays +1 s request
    # latency, visible as a ~1 s longer wire duration for the same URL.
    faults = FaultSpec(latency_spikes=(LatencySpikeWindow(5.0, 55.0, 1.0),))
    clean = run_session("H2", ConstantSchedule(mbps(3)), duration_s=60.0)
    spiked = run_session(
        "H2", ConstantSchedule(mbps(3)), duration_s=60.0, faults=faults
    )
    clean_durations = {
        flow.url: flow.completed_at - flow.started_at
        for flow in clean.proxy.flows
        if flow.complete
    }
    stretched = [
        (flow.completed_at - flow.started_at) - clean_durations[flow.url]
        for flow in spiked.proxy.flows
        if flow.complete
        and 5.0 <= flow.started_at < 55.0
        and flow.url in clean_durations
    ]
    assert stretched
    assert all(delta >= 1.0 - 1e-6 for delta in stretched)


# ---------------------------------------------------------------------------
# Fast-forward invariance under faults (satellite: grid suite extension)
# ---------------------------------------------------------------------------

GRID_FAULTS = FaultSpec(
    error_bursts=(ErrorBurst(start_s=14.0, end_s=17.0),),
    seeded_errors=(SeededErrors(rate=0.06, seed=101),),
    truncation=SeededTruncation(rate=0.08, seed=83),
    dead_air=(DeadAirWindow(21.3, 26.1),),
    latency_spikes=(LatencySpikeWindow(8.0, 12.5, 0.35),),
    reset_times=(19.17, 33.0),
)


def _capture(result):
    return capture_to_json(result.proxy.flows, result.player.ui_samples)


def _assert_identical(serial, other):
    assert other.qoe == serial.qoe
    assert other.duration_s == serial.duration_s
    assert other.player_state == serial.player_state
    assert other.events.events == serial.events.events
    assert other.rrc.energy_j == serial.rrc.energy_j
    assert other.rrc.time_in_state == serial.rrc.time_in_state
    assert other.player.position_s == serial.player.position_s
    assert _capture(other) == _capture(serial)


@pytest.mark.parametrize("name", ALL_SERVICE_NAMES)
def test_grid_invariance_under_faults(name):
    """The event engine and the tick oracle agree byte for byte."""
    for profile_id in (2, 9):
        spec = RunSpec(
            service=name,
            profile_id=profile_id,
            duration_s=45.0,
            faults=GRID_FAULTS,
        )
        serial = run_one(replace(spec, engine="tick"))
        event = run_one(replace(spec, engine="event"))
        assert event.record == serial.record, (
            f"event diverged on profile {profile_id}"
        )
        _assert_identical(serial.result, event.result)


def test_record_counts_resilience_fields():
    spec = RunSpec(
        service="H1",
        profile_id=9,
        duration_s=45.0,
        faults=FaultSpec(reset_times=(5.0, 9.0)),
    )
    outcome = run_one(spec)
    record, result = outcome.record, outcome.result
    failed = result.events.of_type(DownloadFailed)
    assert record.download_failures == len(failed) > 0
    assert record.downloads_given_up == sum(1 for e in failed if e.gave_up)
