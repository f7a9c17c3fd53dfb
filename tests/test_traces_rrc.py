"""Cellular trace generation (Figure 3 input) and the RRC energy model."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.clock import CHUNK_TICKS, Clock, tick_chunk
from repro.net.rrc import RrcConfig, RrcMachine, RrcState
from repro.net.traces import (
    PROFILE_COUNT,
    CellularTrace,
    Scenario,
    cellular_profiles,
    generate_trace,
    split_trace,
)
from repro.util import check_positive, mbps


class TestTraces:
    @pytest.fixture(scope="class")
    def profiles(self):
        return cellular_profiles(600)

    def test_fourteen_profiles(self, profiles):
        assert len(profiles) == PROFILE_COUNT

    def test_sorted_by_average(self, profiles):
        averages = [trace.average_bps for trace in profiles]
        assert averages == sorted(averages)

    def test_average_ladder_range(self, profiles):
        # Figure 3: averages span well under 1 Mbps up to ~40 Mbps.
        assert profiles[0].average_bps < mbps(0.5)
        assert profiles[-1].average_bps > mbps(30)

    def test_duration_and_granularity(self, profiles):
        for trace in profiles:
            assert trace.duration_s == 600
            assert len(trace.samples_bps) == 600

    def test_samples_positive(self, profiles):
        for trace in profiles:
            assert trace.min_bps > 0

    def test_deterministic(self):
        assert generate_trace(3, 120).samples_bps == \
            generate_trace(3, 120).samples_bps

    def test_profiles_differ(self):
        assert generate_trace(3, 120).samples_bps != \
            generate_trace(4, 120).samples_bps

    def test_scenarios_assigned(self, profiles):
        assert profiles[0].scenario is Scenario.DRIVING
        assert profiles[6].scenario is Scenario.WALKING
        assert profiles[-1].scenario is Scenario.STATIONARY

    def test_driving_more_variable_than_stationary(self):
        driving = generate_trace(2, 600)
        stationary = generate_trace(13, 600)

        def coefficient_of_variation(trace: CellularTrace) -> float:
            mean = trace.average_bps
            var = sum((s - mean) ** 2 for s in trace.samples_bps) / len(
                trace.samples_bps
            )
            return var ** 0.5 / mean

        assert coefficient_of_variation(driving) > \
            coefficient_of_variation(stationary)

    def test_invalid_profile_id(self):
        with pytest.raises(ValueError):
            generate_trace(0)
        with pytest.raises(ValueError):
            generate_trace(15)

    def test_split_trace(self):
        trace = generate_trace(1, 600)
        chunks = split_trace(trace, 60)
        assert len(chunks) == 10
        assert all(chunk.duration_s == 60 for chunk in chunks)
        reassembled = tuple(
            sample for chunk in chunks for sample in chunk.samples_bps
        )
        assert reassembled == trace.samples_bps

    def test_as_schedule(self):
        trace = generate_trace(5, 60)
        schedule = trace.as_schedule()
        assert schedule.bandwidth_at(30.5) == trace.samples_bps[30]


class TestRrc:
    def test_promotion_and_energy(self):
        machine = RrcMachine()
        machine.observe(True, 1.0)
        assert machine.state is RrcState.CONNECTED_ACTIVE
        assert machine.promotions == 1
        expected = machine.config.promotion_energy_j + machine.config.active_power_w
        assert machine.energy_j == pytest.approx(expected)

    def test_tail_then_idle(self):
        config = RrcConfig(demotion_timer_s=2.0)
        machine = RrcMachine(config=config)
        machine.observe(True, 1.0)
        machine.observe(False, 1.0)
        assert machine.state is RrcState.CONNECTED_TAIL
        machine.observe(False, 1.0)
        assert machine.state is RrcState.IDLE
        assert machine.demotions == 1

    def test_activity_resets_tail(self):
        config = RrcConfig(demotion_timer_s=2.0)
        machine = RrcMachine(config=config)
        machine.observe(True, 1.0)
        machine.observe(False, 1.5)
        machine.observe(True, 1.0)   # back to active before demotion
        machine.observe(False, 1.5)
        assert machine.state is RrcState.CONNECTED_TAIL
        assert machine.demotions == 0

    def test_short_gap_never_reaches_idle(self):
        """A pause shorter than the demotion timer burns tail energy the
        whole time — the section 3.3.2 energy point."""
        config = RrcConfig(demotion_timer_s=11.0)
        machine = RrcMachine(config=config)
        for _ in range(10):
            machine.observe(True, 1.0)
            for _ in range(8):  # 8 s gaps < 11 s timer
                machine.observe(False, 1.0)
        assert machine.time_in_state[RrcState.IDLE] == 0.0
        assert machine.promotions == 1

    def test_long_gap_reaches_idle_and_saves_energy(self):
        config = RrcConfig(demotion_timer_s=11.0)
        short_gap = RrcMachine(config=config)
        long_gap = RrcMachine(config=config)
        # Same active time, same total duration; different gap structure.
        for _ in range(4):
            short_gap.observe(True, 2.0)
            for _ in range(10):
                short_gap.observe(False, 1.0)
        long_gap.observe(True, 8.0)
        for _ in range(40):
            long_gap.observe(False, 1.0)
        assert long_gap.time_in_state[RrcState.IDLE] > 0
        assert long_gap.energy_j < short_gap.energy_j

    def test_idle_fraction(self):
        machine = RrcMachine(config=RrcConfig(demotion_timer_s=1.0))
        machine.observe(True, 1.0)
        for _ in range(3):
            machine.observe(False, 1.0)
        assert 0.0 < machine.idle_fraction < 1.0


def observe_per_tick(self, radio_active: bool, dt: float) -> None:
    """``RrcMachine.observe`` as written before ``observe_many``, kept
    verbatim (``self`` is the machine): the per-tick oracle."""
    check_positive("dt", dt)
    if radio_active:
        if self.state is RrcState.IDLE:
            self.promotions += 1
            self.energy_j += self.config.promotion_energy_j
        self.state = RrcState.CONNECTED_ACTIVE
        self._tail_remaining_s = self.config.demotion_timer_s
        power = self.config.active_power_w
    else:
        if self.state is RrcState.CONNECTED_ACTIVE:
            self.state = RrcState.CONNECTED_TAIL
        if self.state is RrcState.CONNECTED_TAIL:
            self._tail_remaining_s -= dt
            if self._tail_remaining_s <= 1e-9:
                self.state = RrcState.IDLE
                self.demotions += 1
        power = (
            self.config.tail_power_w
            if self.state is RrcState.CONNECTED_TAIL
            else self.config.idle_power_w
        )
    self.energy_j += power * dt
    self.time_in_state[self.state] += dt


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _snapshot(machine: RrcMachine) -> tuple:
    return (
        machine.state,
        _bits(machine.energy_j),
        machine.promotions,
        machine.demotions,
        _bits(machine._tail_remaining_s),
        [(state, _bits(seconds))
         for state, seconds in machine.time_in_state.items()],
    )


CONFIGS = (
    RrcConfig(),
    RrcConfig(demotion_timer_s=2.7, active_power_w=1.6, tail_power_w=0.7,
              idle_power_w=0.011, promotion_energy_j=0.31),
    RrcConfig(demotion_timer_s=0.35, tail_power_w=0.0, idle_power_w=0.0,
              promotion_energy_j=0.0),
)


@st.composite
def radio_runs(draw):
    """A start state and an activity sequence of long runs, with idle
    gaps a few ticks either side of the demotion timer."""
    config = draw(st.sampled_from(CONFIGS))
    dt = draw(st.sampled_from((0.05, 0.1, 0.2)))
    timer_ticks = round(config.demotion_timer_s / dt)
    state = draw(st.sampled_from(list(RrcState)))
    start = dict(
        state=state,
        energy_j=draw(st.floats(0.0, 500.0)),
        promotions=draw(st.integers(0, 50)),
        demotions=draw(st.integers(0, 50)),
        tail=draw(st.floats(0.0, config.demotion_timer_s)),
        times=draw(st.lists(st.floats(0.0, 600.0), min_size=3,
                            max_size=3)),
    )
    gap = st.one_of(
        st.integers(max(1, timer_ticks - 2), timer_ticks + 2),
        st.integers(1, 3 * timer_ticks + 5),
    )
    runs = draw(st.lists(
        st.tuples(st.booleans(), st.one_of(gap, st.integers(1, 400))),
        min_size=1, max_size=12,
    ))
    activity = [flag for flag, length in runs for _ in range(length)]
    cuts = sorted(draw(st.lists(st.integers(0, len(activity)), max_size=6)))
    return config, dt, start, activity, cuts


def _machine(config: RrcConfig, start: dict) -> RrcMachine:
    machine = RrcMachine(config=config, state=start["state"],
                         energy_j=start["energy_j"],
                         promotions=start["promotions"],
                         demotions=start["demotions"],
                         _tail_remaining_s=start["tail"])
    for state, seconds in zip(RrcState, start["times"]):
        machine.time_in_state[state] = seconds
    return machine


class TestRunLengthReplay:
    @settings(max_examples=150, deadline=None)
    @given(case=radio_runs())
    def test_observe_many_equals_per_tick_oracle(self, case):
        config, dt, start, activity, cuts = case
        oracle = _machine(config, start)
        for radio_active in activity:
            observe_per_tick(oracle, radio_active, dt)
        # The engine feeds a window per call; so do the pieces here.
        replayed = _machine(config, start)
        bounds = [0, *cuts, len(activity)]
        for begin, end in zip(bounds, bounds[1:]):
            replayed.observe_many(activity[begin:end], dt)
        assert _snapshot(replayed) == _snapshot(oracle)
        single = _machine(config, start)
        for radio_active in activity:
            single.observe(radio_active, dt)
        assert _snapshot(single) == _snapshot(oracle)

    def test_dt_is_validated_once_per_call(self):
        machine = RrcMachine()
        with pytest.raises(ValueError):
            machine.observe_many((), 0.0)
        with pytest.raises(ValueError):
            machine.observe(True, -0.1)
        assert machine.energy_j == 0.0

    @settings(max_examples=150, deadline=None)
    @given(
        now=st.one_of(st.floats(0.0, 1e5), st.sampled_from(
            (0.0, 0.30000000000000004, 12.345678901, 599.9, 1e-10))),
        dt=st.sampled_from((0.05, 0.1, 0.2, 1.0 / 3.0, 0.123456789)),
        at_chunk_end=st.booleans(),
        pieces=st.lists(st.one_of(
            st.integers(0, 8),
            st.integers(CHUNK_TICKS - 2, CHUNK_TICKS + 2),
            st.integers(0, 3 * CHUNK_TICKS),
        ), max_size=5),
    )
    def test_clock_advance_equals_ticks(self, now, dt, at_chunk_end, pieces):
        """Every instant the clock reports — after ``advance``, ahead of
        it, or as a window's tick starts — is the one n rounded steps
        reach, across timeline chunk boundaries and from a clock started
        on a chunk's last instant."""
        if at_chunk_end:
            now = tick_chunk(dt, now)[-1]
        ticks = sum(pieces)
        oracle = [now]
        for _ in range(ticks):
            oracle.append(round(oracle[-1] + dt, 9))
        stepped = Clock(dt=dt, now=now)
        for _ in range(ticks):
            stepped.tick()
        jumped = Clock(dt=dt, now=now)
        done = 0
        for piece in pieces:
            window = oracle[done:done + piece]
            assert [_bits(t) for t in jumped.starts(piece)] == [
                _bits(t) for t in window]
            assert _bits(jumped.ahead(piece)) == _bits(oracle[done + piece])
            assert _bits(jumped.advance(piece)) == _bits(oracle[done + piece])
            done += piece
        assert _bits(jumped.now) == _bits(stepped.now) == _bits(oracle[-1])

    def test_clock_advance_rejects_a_negative_count(self):
        clock = Clock(dt=0.1, now=2.5)
        with pytest.raises(ValueError):
            clock.advance(-3)
        assert clock.now == 2.5

    def test_a_clock_set_from_outside_restarts_its_timeline(self):
        clock = Clock(dt=0.1)
        clock.advance(CHUNK_TICKS + 7)
        clock.now = 7.3
        oracle = 7.3
        for _ in range(CHUNK_TICKS + 5):
            oracle = round(oracle + 0.1, 9)
        assert _bits(clock.advance(CHUNK_TICKS + 5)) == _bits(oracle)
