"""Schedule combinators keep the ``BandwidthSchedule`` contract.

``Network.advance_many`` reads a schedule's capacity once and re-reads
it only on the tick whose start reaches ``next_change_at``.  A
combinator without that method cannot drive a batched window at all,
and one whose answer comes late would replay the old capacity past a
change.  These tests hold every exported schedule to the protocol,
``bandwidth_at`` to one rate at every tick start before the answer
(and at the last float before it), and the event engine to the tick
oracle on each combinator.  Every combinator is a frozen dataclass, so
a spec built on one has a cache key and a lease key.
"""

from __future__ import annotations

import math
import pickle
from bisect import bisect_left
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net
from repro.core.outcome_cache import OutcomeCache, lease_key, spec_key
from repro.core.parallel import RunSpec
from repro.core.run import execute, run_one
from repro.net import (
    BandwidthSchedule,
    ClampedSchedule,
    ConcatSchedule,
    ConstantSchedule,
    JitteredSchedule,
    ScaledSchedule,
    StepSchedule,
    TraceSchedule,
)
from repro.util import mbps

STEP = StepSchedule(((0.0, mbps(5)), (7.35, mbps(0.9)), (19.0, mbps(3))))

EXAMPLES = {
    "ConstantSchedule": ConstantSchedule(mbps(3)),
    "StepSchedule": STEP,
    "TraceSchedule": TraceSchedule.from_samples(
        [mbps(4), mbps(4), mbps(1.2), mbps(2.5)]
    ),
    "ScaledSchedule": ScaledSchedule(STEP, 0.7),
    "ClampedSchedule": ClampedSchedule(
        STEP, floor_bps=mbps(1.5), ceiling_bps=mbps(4)
    ),
    "ConcatSchedule": ConcatSchedule([
        (ConstantSchedule(mbps(5)), 12.35),
        (StepSchedule(((0.0, mbps(0.8)), (6.1, mbps(3)))), 20.0),
        (TraceSchedule.from_samples([mbps(2), mbps(6)]), 1.0),
    ]),
    "JitteredSchedule": JitteredSchedule(STEP, sigma=0.2, seed=5),
    # The nested schedule of test_extensions2's session test.
    "nested": JitteredSchedule(
        ClampedSchedule(
            ScaledSchedule(ConstantSchedule(mbps(4)), 0.8),
            floor_bps=mbps(0.5), ceiling_bps=mbps(5),
        ),
        sigma=0.05, seed=1,
    ),
}


def test_every_exported_schedule_is_a_bandwidth_schedule():
    exported = {
        name for name in repro.net.__all__
        if name.endswith("Schedule") and name != "BandwidthSchedule"
    }
    assert exported <= EXAMPLES.keys()
    for name in exported:
        example = EXAMPLES[name]
        assert type(example) is getattr(repro.net, name)
        assert isinstance(example, BandwidthSchedule), name


# ---------------------------------------------------------------------------
# The contract at every tick start, over nested combinators
# ---------------------------------------------------------------------------

RATES = st.sampled_from([mbps(0.5), mbps(1), mbps(2.5), mbps(6)])


def _steps(first, later):
    return StepSchedule(((0.0, first),) + tuple(sorted(later)))


LEAVES = st.one_of(
    st.builds(ConstantSchedule, RATES),
    st.builds(
        _steps,
        RATES,
        st.lists(st.tuples(st.floats(0.01, 90.0), RATES), max_size=5),
    ),
    st.builds(
        TraceSchedule.from_samples,
        st.lists(RATES, min_size=1, max_size=8),
        st.sampled_from([0.5, 1.0]),
    ),
)

PHASE_S = st.one_of(st.floats(0.05, 30.0), st.sampled_from([0.1, 0.3, 7.35]))


def _clamped(inner, low, high):
    return ClampedSchedule(inner, floor_bps=min(low, high),
                           ceiling_bps=max(low, high))


def _combinators(inner):
    return st.one_of(
        st.builds(ScaledSchedule, inner, st.floats(0.1, 3.0)),
        st.builds(_clamped, inner, RATES, RATES),
        st.builds(
            ConcatSchedule,
            st.lists(st.tuples(inner, PHASE_S), min_size=1, max_size=4),
        ),
        st.builds(
            lambda schedule, sigma, seed, horizon: JitteredSchedule(
                schedule, sigma=sigma, seed=seed, horizon_s=horizon
            ),
            inner,
            st.floats(0.0, 0.3),
            st.integers(0, 2**16),
            st.integers(1, 10),
        ),
    )


SCHEDULES = st.recursive(LEAVES, _combinators, max_leaves=6)


@lru_cache(maxsize=None)
def _tick_starts(dt: float, count: int = 1800) -> tuple[float, ...]:
    """Tick start times exactly as the clock produces them."""
    starts, now = [], 0.0
    for _ in range(count):
        starts.append(now)
        now = round(now + dt, 9)
    return tuple(starts)


@settings(max_examples=300, deadline=None)
@given(
    schedule=SCHEDULES,
    dt=st.sampled_from([0.05, 0.1, 0.2]),
    first=st.integers(0, 1200),
)
def test_rate_is_constant_until_next_change(schedule, dt, first):
    starts = _tick_starts(dt)
    t = starts[first]
    rate = schedule.bandwidth_at(t)
    change = schedule.next_change_at(t)
    assert change > t
    for later in starts[first + 1:first + 600]:
        if later >= change:
            break
        assert schedule.bandwidth_at(later) == rate, (t, later, change)
    if change != math.inf:
        # The last float before the answer is still inside the window.
        assert schedule.bandwidth_at(math.nextafter(change, -math.inf)) == rate


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(RATES, min_size=2, max_size=12),
    interval=st.sampled_from([0.05, 0.1, 0.3, 0.7, 1.0]),
    dt=st.sampled_from([0.05, 0.1, 0.2]),
    first=st.integers(0, 1200),
)
def test_trace_schedule_answers_at_its_sample_boundary(
    samples, interval, dt, first
):
    """``sample * interval`` rounds either way when the interval is not
    a binary fraction; the answer must still be the first time
    ``bandwidth_at`` reads the next different sample."""
    schedule = TraceSchedule.from_samples(samples, interval)
    starts = _tick_starts(dt)
    for index in range(first, first + 40):
        t = starts[index]
        rate = schedule.bandwidth_at(t)
        change = schedule.next_change_at(t)
        assert change > t
        if change == math.inf:
            continue
        for later in starts[index:bisect_left(starts, change)]:
            assert schedule.bandwidth_at(later) == rate, (t, later, change)
        assert schedule.bandwidth_at(math.nextafter(change, -math.inf)) == rate
        assert schedule.bandwidth_at(change) != rate  # not early either


def test_concat_answer_steps_back_past_rounding():
    """``14.2 + 45.2`` rounds one ulp above 59.4, where the phase
    already reads the step (``59.4 - 14.2 == 45.2``)."""
    schedule = ConcatSchedule([
        (ConstantSchedule(mbps(1)), 14.2),
        (StepSchedule(((0.0, mbps(2)), (45.2, mbps(3)))), 100.0),
    ])
    assert 14.2 + 45.2 > 59.4
    assert schedule.next_change_at(14.2) == 59.4
    assert schedule.bandwidth_at(math.nextafter(59.4, -math.inf)) == mbps(2)
    assert schedule.bandwidth_at(59.4) == mbps(3)


def test_jittered_changes_every_second():
    schedule = JitteredSchedule(ConstantSchedule(mbps(2)), sigma=0.1, seed=3)
    assert schedule.next_change_at(4.3) == 5.0
    assert schedule.next_change_at(0.0) == 1.0


# ---------------------------------------------------------------------------
# Sessions on each combinator: event engine against the tick oracle
# ---------------------------------------------------------------------------


def _observed(spec):
    outcome = run_one(spec)
    player = outcome.result.player
    return outcome.record, player.events.events, player.ui_samples


@pytest.mark.parametrize("name", [
    "ScaledSchedule", "ClampedSchedule", "ConcatSchedule",
    "JitteredSchedule", "nested",
])
def test_event_engine_matches_tick_on_combinator(name):
    spec = RunSpec(service="H1", schedule=EXAMPLES[name], duration_s=60.0)
    tick = _observed(replace(spec, engine="tick"))
    assert _observed(replace(spec, engine="event")) == tick


# ---------------------------------------------------------------------------
# Keys: combinators are frozen dataclasses, so their specs are keyable
# ---------------------------------------------------------------------------


def _key(schedule):
    return spec_key(RunSpec(service="H1", schedule=schedule, duration_s=20.0))


def _concat(first_s=12.35, rate=mbps(5)):
    return ConcatSchedule([(ConstantSchedule(rate), first_s), (STEP, 20.0)])


KEYED = ("ConcatSchedule", "JitteredSchedule", "nested")


@pytest.mark.parametrize("name", KEYED)
def test_combinator_specs_have_cache_and_lease_keys(name):
    spec = RunSpec(service="H1", schedule=EXAMPLES[name], duration_s=20.0)
    assert spec_key(spec) == lease_key(spec)


def test_equal_combinators_are_equal_and_share_a_key():
    as_list = _concat()
    as_tuple = ConcatSchedule(tuple(as_list.phases))
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    assert _key(as_list) == _key(as_tuple)
    jittered = JitteredSchedule(STEP, sigma=0.2, seed=5)
    again = JitteredSchedule(STEP, sigma=0.2, seed=5)
    assert jittered == again and hash(jittered) == hash(again)
    assert _key(jittered) == _key(again)
    assert RunSpec(service="H1", schedule=jittered) == RunSpec(
        service="H1", schedule=again
    )


def test_combinator_fields_split_the_key_space():
    assert _key(_concat()) != _key(_concat(first_s=12.4))
    assert _key(_concat()) != _key(_concat(rate=mbps(4)))
    jittered = _key(JitteredSchedule(STEP, sigma=0.2, seed=5))
    assert jittered != _key(JitteredSchedule(STEP, sigma=0.2, seed=6))
    assert jittered != _key(JitteredSchedule(STEP, sigma=0.25, seed=5))
    assert jittered != _key(
        JitteredSchedule(STEP, sigma=0.2, seed=5, horizon_s=60)
    )


def test_combinators_round_trip_through_pickle():
    times = [0.05 * k for k in range(800)]
    for name in KEYED:
        schedule = EXAMPLES[name]
        copy = pickle.loads(pickle.dumps(schedule))
        assert copy == schedule
        assert [copy.bandwidth_at(t) for t in times] == [
            schedule.bandwidth_at(t) for t in times
        ]


def test_second_cached_pass_over_combinators_is_all_hits(tmp_path):
    specs = [
        RunSpec(service="H1", schedule=EXAMPLES[name], duration_s=20.0)
        for name in KEYED
    ]
    cache = OutcomeCache(tmp_path)
    first = execute(specs, workers=0, cache=cache)
    second = execute(specs, workers=0, cache=cache)
    assert (cache.misses, cache.hits) == (len(specs), len(specs))
    assert second == first


@pytest.mark.parametrize("interval", [1.0, 0.1])
def test_trace_schedule_pickles_only_its_data(interval):
    """The change-point table is rebuilt on load, not shipped: every
    spec, payload and wire frame holding an explicit trace carries the
    samples alone, and the loaded schedule answers like the original."""
    from repro.net.traces import TRACE_SEED, profile_schedule

    samples = profile_schedule(9, 600, TRACE_SEED).samples_bps
    schedule = TraceSchedule.from_samples(samples, interval)
    data = pickle.dumps(schedule)
    assert b"_change_indices" not in data
    assert len(data) < len(pickle.dumps(samples)) + 100
    loaded = pickle.loads(data)
    assert loaded == schedule
    for step in range(2 * len(samples) + 7):
        t = step * interval * 0.61
        assert loaded.next_change_at(t) == schedule.next_change_at(t)
        assert loaded.bandwidth_at(t) == schedule.bandwidth_at(t)
