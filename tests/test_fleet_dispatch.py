"""Per-client dispatch on shared cells: same records, fewer full ticks.

A dispatched tick of the event engine runs a full ``Player.advance``
only for the clients it touches; everyone else replays the tick with
``apply_noop_ticks(1)``.  These tests hold that to the tick oracle on
generated fleets (services, schedules, churn and faults drawn at
random), pin the dispatch structure of the benchmark's first cell, and
check the one-pass flow attribution against the substring filter it
replaced.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blackbox.resilience import standard_fault_scenarios
from repro.core.events import EventType
from repro.core.fleet import FleetSession, FleetSpec
from repro.core.multi import flows_by_asset
from repro.core.parallel import TickStats
from repro.net.network import ADVANCE_COMPLETION, Network
from repro.net.schedule import ConstantSchedule, StepSchedule
from repro.player.player import Player
from repro.services.profiles import ALL_SERVICE_NAMES
from repro.util import mbps


def _records(spec: FleetSpec, engine: str):
    session = FleetSession(dataclasses.replace(spec, engine=engine))
    return [result.record for result in session.run()]


@st.composite
def schedules(draw, duration_s: float):
    rate = st.floats(min_value=mbps(0.5), max_value=mbps(20.0))
    if draw(st.booleans()):
        return ConstantSchedule(draw(rate))
    starts = draw(st.lists(
        st.floats(min_value=0.5, max_value=duration_s - 0.5),
        min_size=2, max_size=2, unique=True,
    ))
    steps = tuple(zip([0.0] + sorted(starts), [draw(rate) for _ in range(3)]))
    return StepSchedule(steps=steps)


@st.composite
def fleet_specs(draw):
    duration_s = draw(st.floats(min_value=20.0, max_value=45.0))
    churn = draw(st.one_of(st.none(), st.tuples(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=2.0, max_value=40.0),
        st.integers(min_value=0, max_value=10_000),
    )))
    arrival_rate, mean_dwell, churn_seed = churn or (None, None, 0)
    scenarios = standard_fault_scenarios(duration_s)
    fault = draw(st.one_of(st.none(), st.sampled_from(scenarios)))
    return FleetSpec(
        services=tuple(draw(st.lists(
            st.sampled_from(ALL_SERVICE_NAMES), min_size=1, max_size=12
        ))),
        schedule=draw(schedules(duration_s)),
        duration_s=duration_s,
        content_duration_s=draw(st.floats(min_value=10.0, max_value=40.0)),
        arrival_rate_per_s=arrival_rate,
        mean_dwell_s=mean_dwell,
        churn_seed=churn_seed,
        faults=fault.faults if fault is not None else None,
    )


@settings(max_examples=40, deadline=None)
@given(spec=fleet_specs())
def test_generated_fleets_match_tick_oracle(spec):
    assert _records(spec, "event") == _records(spec, "tick")


# The fleet-cell benchmark's first cell at seed 0: 50 clients, H1/D1/S1
# in turn.
BENCH_CELL = FleetSpec(
    services=tuple(("H1", "D1", "S1")[i % 3] for i in range(50)),
    schedule=ConstantSchedule(7.5e6),
    duration_s=30.0,
    content_duration_s=20.0,
    arrival_rate_per_s=2.5,
    mean_dwell_s=20.0,
    churn_seed=1,
)

# The cell's dispatch structure, regenerated when segment starts began
# to replay inside batched windows (that took the dispatched ticks from
# 250 to 247) and again when ``advance_many`` windows began to count as
# transfer ticks (52 of the 53 batched ticks, 44 of the 45 windows).
# Which clients a dispatched tick fully advances must not move a single
# dispatch or batched window.
BENCH_CELL_TICK_STATS = TickStats(
    ticks_executed=247,
    idle_fast_forwarded_ticks=1,
    idle_fast_forward_jumps=1,
    transfer_fast_forwarded_ticks=52,
    transfer_fast_forward_jumps=44,
)


def _count_advances(spec: FleetSpec):
    calls = [0]
    advance = Player.advance

    def counting(self, dt):
        calls[0] += 1
        return advance(self, dt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Player, "advance", counting)
        session = FleetSession(spec)
        records = [result.record for result in session.run()]
    return calls[0], session.tick_stats, records


def test_bench_cell_runs_few_full_ticks():
    event_calls, event_stats, event_records = _count_advances(
        dataclasses.replace(BENCH_CELL, engine="event")
    )
    tick_calls, _, tick_records = _count_advances(
        dataclasses.replace(BENCH_CELL, engine="tick")
    )
    assert event_records == tick_records
    assert event_stats == BENCH_CELL_TICK_STATS
    assert event_calls * 5 <= tick_calls


def test_transfer_ticks_are_the_ticks_advance_many_returned():
    """A fleet counts its ``advance_many`` windows as transfer ticks,
    all but the completing tick a completion stop ends on, which the
    loop dispatches."""
    windows = []
    advance_many = Network.advance_many

    def recording(self, max_ticks, dt):
        result = advance_many(self, max_ticks, dt)
        executed, _, reason, _ = result
        if reason == ADVANCE_COMPLETION:
            executed -= 1
        if executed > 0:
            windows.append(executed)
        return result

    spec = FleetSpec(services=("H1", "D1"), schedule=ConstantSchedule(4e6),
                     duration_s=120.0, engine="event")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "advance_many", recording)
        session = FleetSession(spec)
        session.run()
    stats = session.tick_stats
    assert windows
    assert stats.transfer_fast_forwarded_ticks == sum(windows)
    assert stats.transfer_fast_forward_jumps == len(windows)
    assert stats.ticks_simulated == 1200


def test_departed_clients_own_no_queue_entries():
    """Retirement cancels the client's wake."""
    session = FleetSession(dataclasses.replace(BENCH_CELL, engine="event"))
    results = session.run()
    departed = {
        index for index, result in enumerate(results)
        if result.record.final_state == "departed"
    }
    assert departed
    queue = session.session.queue
    while (event := queue.pop()) is not None:
        if event.type is EventType.PLAYER_WAKE:
            assert event.payload not in departed


def _substring_filter(flows, asset_ids):
    return [
        [flow for flow in flows if f"/{asset_id}/" in flow.url]
        for asset_id in asset_ids
    ]


def _flows(*urls):
    return [SimpleNamespace(url=url) for url in urls]


def test_flows_by_asset_matches_substring_filter():
    flows = _flows(
        "https://cdn1.example.com/h1#1-title/master.m3u8",
        "https://cdn10.example.com/h1#10-title/v2/seg_3.ts",
        "https://cdn1.example.com/h1#1-title/v0/seg_0.ts",
        # two markers in one URL: the flow belongs to both clients
        "https://cdn2.example.com/d1#2-title/mirror/s1#3-title/media.mp4",
        # a marker repeated in one URL counts once
        "https://cdn3.example.com/s1#3-title/s1#3-title/Manifest",
        # neither a leading nor a trailing piece is a marker
        "h1#1-title/x",
        "https://cdn1.example.com/x/h1#1-title",
        # ids containing a slash keep the substring test
        "https://cdn4.example.com/a/b/seg.ts",
    )
    asset_ids = [
        "h1#1-title", "h1#10-title", "d1#2-title", "s1#3-title",
        "h1#1-title",  # a duplicate id gets the same flows
        "a/b", "unused-title",
    ]
    got = flows_by_asset(flows, asset_ids)
    want = _substring_filter(flows, asset_ids)
    assert [[id(f) for f in bucket] for bucket in got] == [
        [id(f) for f in bucket] for bucket in want
    ]
    assert [len(bucket) for bucket in got] == [2, 1, 1, 2, 2, 1, 0]


@settings(max_examples=200, deadline=None)
@given(
    pieces=st.lists(
        st.lists(st.sampled_from(["a", "ab", "b", "a/b", "", "x#1"]),
                 max_size=6),
        max_size=8,
    ),
    asset_ids=st.lists(st.sampled_from(["a", "ab", "b", "a/b", "", "x#1"]),
                       min_size=1, max_size=5),
)
def test_flows_by_asset_property(pieces, asset_ids):
    flows = _flows(*("/".join(parts) for parts in pieces))
    got = flows_by_asset(flows, asset_ids)
    want = _substring_filter(flows, asset_ids)
    assert [[id(f) for f in bucket] for bucket in got] == [
        [id(f) for f in bucket] for bucket in want
    ]
