"""Fleet layer: spec-first API, churn, population metrics, cache.

The load-bearing guarantees:

* small-N fleets are byte-identical to a hand-built ``MultiSession``
  (the tick oracle) on BOTH engines — the fleet layer adds naming,
  seeding and bookkeeping, never simulation semantics;
* churn (mid-run arrivals/departures) preserves the tick/event
  identity, batched windows included;
* the same FleetSpec run twice produces ``==`` outcomes and identical
  JSON (the determinism gate CI enforces);
* FleetSpec flows through ``execute()``, the outcome cache and
  pickling like RunSpec does.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.core.fleet import (
    DEVICE_CLASSES,
    FleetSpec,
    get_device_class,
    jain_index,
    run_fleet,
    summarize_population,
)
from repro.core.multi import EventDrivenMultiSession, MultiSession
from repro.core.outcome_cache import OutcomeCache
from repro.core.run import execute
from repro.net.schedule import ConstantSchedule, StepSchedule
from repro.server.origin import OriginServer
from repro.services.profiles import build_service, get_service
from repro.util import mbps

DURATION_S = 90.0
CONTENT_S = 60.0
SCHEDULE = ConstantSchedule(mbps(8))


def _oracle_results(names, schedule, engine, duration_s=DURATION_S,
                    content_duration_s=CONTENT_S):
    """What a hand-built MultiSession produces (the pre-fleet recipe)."""
    server = OriginServer()
    builts = []
    for index, name in enumerate(names):
        distinct = dataclasses.replace(
            get_service(name), name=f"{name}#{index}"
        )
        builts.append(build_service(
            distinct, server, duration_s=content_duration_s,
            content_seed=11 + index,
            base_url=f"https://cdn{index}.example.com",
        ))
    cls = EventDrivenMultiSession if engine == "event" else MultiSession
    session = cls(builts, server, schedule)
    return session.run(duration_s)


def _assert_same_clients(fleet_records, oracle_results):
    assert len(fleet_records) == len(oracle_results)
    for record, oracle in zip(fleet_records, oracle_results):
        assert record.client_id == oracle.record.client_id
        assert record.service_name == oracle.record.service_name
        assert record.qoe == oracle.record.qoe
        assert record.final_state == oracle.record.final_state
        assert record.end_reason == oracle.record.end_reason


class TestOracleIdentity:
    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_small_fleet_matches_hand_built_multisession(self, engine):
        names = ("H1", "D1", "S1")
        spec = FleetSpec(services=names, schedule=SCHEDULE,
                         duration_s=DURATION_S, content_duration_s=CONTENT_S,
                         engine=engine)
        outcome = run_fleet(spec)
        oracle = _oracle_results(names, SCHEDULE, engine)
        _assert_same_clients(outcome.clients, oracle)

    def test_engines_agree_on_step_schedule(self):
        schedule = StepSchedule.single_step(mbps(8), mbps(1.5), 30.0)
        base = FleetSpec(services=("H3", "D3"), schedule=schedule,
                         duration_s=DURATION_S, content_duration_s=CONTENT_S,
                         engine="tick")
        tick = run_fleet(base)
        event = run_fleet(dataclasses.replace(base, engine="event"))
        assert tick.clients == event.clients
        assert tick.population == event.population


class TestChurn:
    CHURN_SPEC = FleetSpec(
        services=("H1", "D1"), clients=6, service_weights=(2.0, 1.0),
        schedule=SCHEDULE, duration_s=DURATION_S,
        content_duration_s=CONTENT_S, arrival_rate_per_s=0.1,
        mean_dwell_s=40.0, churn_seed=3, engine="tick",
    )

    def test_tick_and_event_agree_under_churn(self):
        tick = run_fleet(self.CHURN_SPEC)
        event = run_fleet(
            dataclasses.replace(self.CHURN_SPEC, engine="event")
        )
        assert tick.clients == event.clients
        assert tick.population == event.population
        # The event run batched idle windows between churn instants.
        assert event.tick_stats.idle_fast_forward_jumps > 0

    def test_roster_is_deterministic_and_seed_sensitive(self):
        first = self.CHURN_SPEC.roster()
        again = self.CHURN_SPEC.roster()
        assert first == again
        other = dataclasses.replace(self.CHURN_SPEC, churn_seed=4).roster()
        assert other != first

    def test_departed_and_unarrived_states(self):
        spec = FleetSpec(
            services=("H1", "H1", "H1"), schedule=SCHEDULE,
            duration_s=30.0, content_duration_s=CONTENT_S, engine="tick",
        )
        # Hand-pin churn through the session layer: client 1 departs at
        # 10 s, client 2 arrives after the horizon (offered, not carried).
        session = _pinned_session(spec, arrivals=[0.0, 0.0, 40.0],
                                  departures=[None, 10.0, None])
        results = session.run(spec.duration_s)
        records = [r.record for r in results]
        assert records[0].final_state in ("playing", "ended", "paused")
        assert records[1].final_state == "departed"
        assert records[2].final_state == "unarrived"
        assert records[2].qoe.total_bytes == 0
        summary = summarize_population(tuple(records))
        assert summary.clients == 3
        assert summary.arrived == 2  # unarrived excluded from percentiles
        assert summary.departed == 1

    def test_multisession_ends_early_when_all_clients_depart(self):
        spec = FleetSpec(services=("H1", "D1"), schedule=SCHEDULE,
                         duration_s=80.0, content_duration_s=CONTENT_S,
                         engine="tick")
        session = _pinned_session(spec, arrivals=[0.0, 0.0],
                                  departures=[10.0, 12.0])
        results = session.run(spec.duration_s)
        assert all(r.record.final_state == "departed" for r in results)
        # The run loop must honour departures, not the full horizon.
        assert session.ticks_executed < int(80.0 / spec.dt)


def _pinned_session(spec, *, arrivals, departures):
    from repro.core.fleet import FleetSession

    fleet = FleetSession(dataclasses.replace(spec))
    cls = (EventDrivenMultiSession if spec.engine == "event"
           else MultiSession)
    return cls(
        [built for built in fleet.session.builts],
        fleet.server,
        spec.resolved_schedule(),
        arrivals=arrivals,
        departures=departures,
    )


class TestDeterminism:
    def test_same_spec_twice_identical_outcome_and_json(self):
        spec = FleetSpec(
            services=("H1", "D1", "S1"), clients=8,
            service_weights=(1.0, 1.0, 1.0), schedule=SCHEDULE,
            duration_s=60.0, content_duration_s=40.0,
            arrival_rate_per_s=0.2, mean_dwell_s=30.0, churn_seed=5,
            engine="event",
        )
        first = run_fleet(spec)
        second = run_fleet(spec)
        assert first == second
        assert (json.dumps(first.to_json(), sort_keys=True)
                == json.dumps(second.to_json(), sort_keys=True))

    def test_client_records_pickle_round_trip(self):
        spec = FleetSpec(services=("H1",), schedule=SCHEDULE,
                         duration_s=30.0, content_duration_s=CONTENT_S)
        outcome = run_fleet(spec)
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.clients == outcome.clients
        assert clone.population == outcome.population


class TestExecuteIntegration:
    SPEC = FleetSpec(services=("H1", "D1"), schedule=SCHEDULE,
                     duration_s=40.0, content_duration_s=30.0,
                     engine="event")

    def test_execute_serial_path(self):
        outcome = execute([self.SPEC], workers=0)[0]
        assert outcome.population.clients == 2
        assert outcome.results is None  # records only, no live handles

    def test_cache_round_trip(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        first = execute([self.SPEC], workers=0, cache=cache)[0]
        second = execute([self.SPEC], workers=0, cache=cache)[0]
        assert cache.stats().hits == 1
        assert first.clients == second.clients
        assert (json.dumps(first.to_json(), sort_keys=True)
                == json.dumps(second.to_json(), sort_keys=True))

    def test_metrics_surface_population(self):
        outcome = run_fleet(self.SPEC)
        assert outcome.metrics.value("fleet.clients") == 2
        assert outcome.metrics.value(
            "fleet.clients.by_state", state="ended"
        ) == 2

    def test_metrics_carry_the_cell_loop_counters(self):
        from repro.core.fleet import FleetSession

        spec = dataclasses.replace(TestChurn.CHURN_SPEC, engine="event")
        outcome = run_fleet(spec)
        fleet = FleetSession(spec)
        fleet.run()
        cell = fleet.session
        metrics = outcome.metrics
        completion = cell.advance_stop_counts["completion"]
        assert completion > 0
        assert metrics.value(
            "session.advance_stops", reason="completion"
        ) == completion
        assert metrics.value("session.dispatches") == (
            outcome.tick_stats.ticks_executed
        )
        for kind, count in cell.dispatch_counts.items():
            assert metrics.value("session.events", type=kind) == count
        assert metrics.value("session.queue_pushes") == cell.queue.pushed_total
        assert metrics.value("session.queue_depth_max") == cell.max_queue_depth
        # The tick oracle keeps no loop counters.
        tick = run_fleet(TestChurn.CHURN_SPEC)
        assert tick.metrics.value("session.dispatches") is None
        # Two leases over the same two catalogues, so they fan out.
        specs = [self.SPEC, dataclasses.replace(self.SPEC, duration_s=30.0)]
        serial = execute(specs, workers=0)
        assert serial[0].metrics.value("session.dispatches") > 0
        assert execute(specs, workers=2) == serial


class TestDeviceClasses:
    def test_known_classes(self):
        assert "phone" in DEVICE_CLASSES
        assert get_device_class("tv").config_overrides

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="toaster"):
            get_device_class("toaster")

    def test_device_overrides_change_behaviour(self):
        base = FleetSpec(services=("H1",), schedule=ConstantSchedule(mbps(3)),
                         duration_s=120.0, content_duration_s=240.0,
                         engine="tick")
        tv = dataclasses.replace(
            base, devices=(get_device_class("tv"),)
        )
        default_outcome = run_fleet(base)
        tv_outcome = run_fleet(tv)
        assert tv_outcome.clients[0].device_class == "tv"
        # A 120 s pause threshold buffers further ahead than 60 s.
        assert (tv_outcome.clients[0].qoe.total_bytes
                >= default_outcome.clients[0].qoe.total_bytes)


class TestJainIndex:
    def test_equal_shares_are_fair(self):
        assert jain_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_single_hog_is_unfair(self):
        assert jain_index([4.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_degenerate_populations_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0


class TestSpecValidation:
    def test_weights_require_clients(self):
        with pytest.raises(ValueError):
            FleetSpec(services=("H1",), service_weights=(1.0,))

    def test_weight_length_must_match(self):
        with pytest.raises(ValueError):
            FleetSpec(services=("H1", "D1"), clients=4,
                      service_weights=(1.0,))

    def test_churn_rates_positive(self):
        with pytest.raises(ValueError):
            FleetSpec(services=("H1",), arrival_rate_per_s=0.0)
        with pytest.raises(ValueError):
            FleetSpec(services=("H1",), mean_dwell_s=-1.0)
