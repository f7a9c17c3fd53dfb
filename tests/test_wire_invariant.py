"""Between dispatches, every job a client has in flight is on the wire.

The event loop picks each client's margin contract
(``_player_deadline``, run from ``_refresh_producers``) and opens
batched windows (``_batch_to``) only between dispatches, and it relies
on one invariant there (DESIGN.md §4q): every job an active client has
in flight has a part on a connection, so a busy client always takes the
transfer contract and a link with no transfer on it carries no busy
client.  These tests wrap the two entry points and check the invariant
at every call: on specs whose resets, timeouts and departures tear
transfers down, and on generated sessions and fleets.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings

from repro.analysis.faults import FaultSpec
from repro.blackbox.resilience import standard_fault_scenarios
from repro.core.fleet import FleetSession, FleetSpec
from repro.core.multi import EventDrivenMultiSession, MultiSession
from repro.core.parallel import RunSpec
from repro.core.run import run_one
from repro.net.faults import DeadAirWindow
from repro.net.network import Network
from repro.net.schedule import ConstantSchedule
from repro.player.resilience import RetryPolicy
from repro.util import mbps

from tests.test_fleet_dispatch import fleet_specs
from tests.test_window_replay import run_specs


def _faults(name: str, duration_s: float):
    scenarios = {s.name: s for s in standard_fault_scenarios(duration_s)}
    return scenarios[name].faults


#: Specs whose resets, timeouts and departures tear transfers down.
TORN_DOWN = {
    "reset-storm-session": RunSpec(
        service="H1", profile_id=5, duration_s=60.0,
        faults=_faults("reset-storm", 60.0)),
    # Dead air freezes split parts until the client's timeout aborts
    # them, one part at a time.
    "timeout-session": RunSpec(
        service="D3", schedule=ConstantSchedule(mbps(3)), duration_s=60.0,
        faults=FaultSpec(dead_air=(DeadAirWindow(6.0, 20.0),)),
        config_overrides=(("retry_policy", RetryPolicy(
            max_attempts=20, base_delay_s=0.5, backoff_factor=2.0,
            request_timeout_s=2.0)),)),
    "churny-reset-storm-cell": FleetSpec(
        services=("H1", "D1", "S1"), clients=8,
        schedule=ConstantSchedule(mbps(6)), duration_s=40.0,
        content_duration_s=30.0, arrival_rate_per_s=1.0,
        mean_dwell_s=10.0, churn_seed=3,
        faults=_faults("reset-storm", 40.0)),
}


def _check(session: EventDrivenMultiSession, counts: dict) -> None:
    busy = False
    for index in session._active:
        scheduler = session.players[index].scheduler
        for jobs in scheduler._inflight.values():
            for job in jobs:
                busy = True
                assert any(
                    connection.transfer is transfer
                    for connection, transfer in job._transfers
                ), f"client {index}: {job.describe()} has no part on the wire"
    if busy:
        counts["busy"] += 1
        assert session.network.steady_for_batching()


@contextlib.contextmanager
def _checking():
    """Check the invariant at every producer refresh and window, and
    count the transfers torn down under way."""
    counts = {"busy": 0, "torn_down": 0}
    refresh = EventDrivenMultiSession._refresh_producers
    batch_to = EventDrivenMultiSession._batch_to
    abort_transfer = Network.abort_transfer
    retire = MultiSession._retire

    def checked_refresh(self, touched, sigs):
        _check(self, counts)
        return refresh(self, touched, sigs)

    def checked_batch_to(self, target, limit, dt):
        _check(self, counts)
        return batch_to(self, target, limit, dt)

    def counted_abort(self, connection):
        counts["torn_down"] += connection.transfer is not None
        return abort_transfer(self, connection)

    def counted_retire(self, index, now):
        scheduler = self.players[index].scheduler
        counts["torn_down"] += sum(
            connection.transfer is not None
            for connection in scheduler.connections()
        )
        return retire(self, index, now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EventDrivenMultiSession, "_refresh_producers",
                      checked_refresh)
        patch.setattr(EventDrivenMultiSession, "_batch_to", checked_batch_to)
        patch.setattr(Network, "abort_transfer", counted_abort)
        patch.setattr(MultiSession, "_retire", counted_retire)
        yield counts


def _run(spec) -> None:
    if isinstance(spec, FleetSpec):
        FleetSession(spec).run()
    else:
        run_one(spec)


@pytest.mark.parametrize("name", list(TORN_DOWN))
def test_torn_down_transfers_leave_no_job_off_the_wire(name):
    with _checking() as counts:
        _run(TORN_DOWN[name])
    assert counts["busy"] > 0
    assert counts["torn_down"] > 0


@settings(max_examples=20, deadline=None)
@given(spec=run_specs())
def test_sessions_keep_busy_clients_on_the_wire(spec):
    with _checking() as counts:
        _run(spec)
    assert counts["busy"] > 0


@settings(max_examples=20, deadline=None)
@given(spec=fleet_specs())
def test_fleets_keep_busy_clients_on_the_wire(spec):
    with _checking() as counts:
        _run(spec)
    assert counts["busy"] > 0
