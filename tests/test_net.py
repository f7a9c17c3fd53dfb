"""Unit tests for the network substrate: schedules, TCP, link, HTTP."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    BottleneckLink,
    Clock,
    ConstantSchedule,
    DeadAirWindow,
    HttpMethod,
    HttpRequest,
    HttpStatus,
    Network,
    ResponsePlan,
    StepSchedule,
    TcpConnection,
    TcpConnectionState,
    TraceSchedule,
    Transfer,
    TransportFaultPlane,
    water_fill,
)
from repro.net.link import allocate
from repro.net.network import (
    ADVANCE_COMPLETION,
    ADVANCE_FAULT,
    ADVANCE_HORIZON,
)
from repro.net.tcp import INITIAL_CWND_BYTES
from repro.util import check_positive, mbps


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(mbps(3))
        assert schedule.bandwidth_at(0) == mbps(3)
        assert schedule.bandwidth_at(1e6) == mbps(3)

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0)

    def test_step(self):
        schedule = StepSchedule.single_step(mbps(5), mbps(1), 100.0)
        assert schedule.bandwidth_at(99.9) == mbps(5)
        assert schedule.bandwidth_at(100.0) == mbps(1)
        assert schedule.bandwidth_at(500.0) == mbps(1)

    def test_step_requires_sorted(self):
        with pytest.raises(ValueError):
            StepSchedule(steps=((10.0, 1.0), (0.0, 2.0)))

    def test_step_requires_zero_start(self):
        with pytest.raises(ValueError):
            StepSchedule(steps=((1.0, 1.0),))

    def test_trace_repeats(self):
        schedule = TraceSchedule.from_samples([1.0, 2.0, 3.0])
        assert schedule.bandwidth_at(0.5) == 1.0
        assert schedule.bandwidth_at(2.9) == 3.0
        assert schedule.bandwidth_at(3.1) == 1.0  # wraps
        assert schedule.average_bps == 2.0

    def test_trace_rejects_empty(self):
        with pytest.raises(ValueError):
            TraceSchedule(samples_bps=())

    def test_step_bisect_matches_linear_scan(self):
        steps = ((0.0, 1.0), (3.5, 2.0), (3.5, 3.0), (10.0, 4.0), (27.3, 5.0))
        schedule = StepSchedule(steps=steps)
        for t in [0.0, 0.1, 3.4999, 3.5, 3.6, 9.999, 10.0, 27.29, 27.3, 1e6]:
            expected = steps[0][1]
            for start, rate in steps:
                if start <= t:
                    expected = rate
            assert schedule.bandwidth_at(t) == expected, t

    def test_trace_cache_transparent(self):
        import copy
        import pickle

        schedule = TraceSchedule.from_samples([1.0, 2.0, 3.0])
        naive = lambda t: schedule.samples_bps[int(t) % 3]  # noqa: E731
        for t in [0.0, 0.5, 0.5, 1.0, 0.9, 2.99, 3.0, 47.2]:
            assert schedule.bandwidth_at(t) == naive(t), t
        # The last-hit cache must not leak into the value semantics.
        assert schedule == TraceSchedule.from_samples([1.0, 2.0, 3.0])
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert clone.bandwidth_at(1.5) == 2.0
        assert copy.deepcopy(schedule).bandwidth_at(2.5) == 3.0


class TestNextChangeAt:
    """The batching contract: rate constant on [t, next_change_at(t))."""

    def test_constant_never_changes(self):
        import math

        assert ConstantSchedule(mbps(3)).next_change_at(12.3) == math.inf

    def test_step_boundaries(self):
        import math

        schedule = StepSchedule.single_step(mbps(5), mbps(1), 100.0)
        assert schedule.next_change_at(0.0) == 100.0
        assert schedule.next_change_at(99.9) == 100.0
        assert schedule.next_change_at(100.0) == math.inf
        assert schedule.next_change_at(200.0) == math.inf

    def test_trace_sample_boundaries(self):
        schedule = TraceSchedule.from_samples([1.0, 2.0, 3.0])
        assert schedule.next_change_at(0.0) == 1.0
        assert schedule.next_change_at(0.95) == 1.0
        assert schedule.next_change_at(1.0) == 2.0
        assert schedule.next_change_at(3.0) == 4.0  # repeats forever

    @pytest.mark.parametrize(
        "schedule",
        [
            ConstantSchedule(mbps(4)),
            StepSchedule(steps=((0.0, mbps(6)), (7.35, mbps(1)), (13.0, mbps(4)))),
            TraceSchedule.from_samples([3e6, 1e6, 6e6, 2e6], interval_s=1.0),
        ],
    )
    def test_contract_rate_constant_within_window(self, schedule):
        dt = 0.1
        t = 0.0
        for _ in range(300):
            change_at = schedule.next_change_at(t)
            assert change_at > t
            rate = schedule.bandwidth_at(t)
            # Probe the last tick start strictly inside the window — the
            # point the batched loop actually reaches.
            last = min(change_at - 1e-9, t + 60.0)
            ticks = int((last - t) / dt)
            assert schedule.bandwidth_at(round(t + ticks * dt, 9)) == rate
            t = round(t + dt, 9)


class TestWaterFill:
    def test_simple_split(self):
        assert water_fill(10.0, [10.0, 10.0]) == [5.0, 5.0]

    def test_capped_demand_releases_share(self):
        allocations = water_fill(10.0, [2.0, 10.0])
        assert allocations[0] == pytest.approx(2.0)
        assert allocations[1] == pytest.approx(8.0)

    def test_total_never_exceeds_capacity(self):
        allocations = water_fill(7.0, [3.0, 3.0, 3.0, 3.0])
        assert sum(allocations) <= 7.0 + 1e-9

    def test_never_exceeds_demand(self):
        allocations = water_fill(100.0, [1.0, 2.0])
        assert allocations == [1.0, 2.0]

    def test_zero_demands_ignored(self):
        assert water_fill(10.0, [0.0, 10.0]) == [0.0, 10.0]

    def test_empty(self):
        assert water_fill(10.0, []) == []


def _water_fill_reference(capacity, demands):
    """The pre-optimization fixed-point formulation, kept verbatim.

    The production ``water_fill`` must stay float-for-float equal to
    this: every event-engine session replays allocations computed by
    one against ticks originally computed by the other.
    """
    allocations = [0.0] * len(demands)
    unsatisfied = [i for i, demand in enumerate(demands) if demand > 0]
    remaining = capacity
    while unsatisfied and remaining > 1e-12:
        share = remaining / len(unsatisfied)
        satisfied_now = [
            i for i in unsatisfied if demands[i] - allocations[i] <= share + 1e-12
        ]
        if satisfied_now:
            for i in satisfied_now:
                remaining -= demands[i] - allocations[i]
                allocations[i] = demands[i]
            unsatisfied = [i for i in unsatisfied if i not in set(satisfied_now)]
        else:
            for i in unsatisfied:
                allocations[i] += share
            remaining = 0.0
    return allocations


class TestWaterFillEquivalence:
    def test_hand_picked_cases(self):
        cases = [
            (0.0, [1.0, 2.0]),
            (5e-13, [1.0]),
            (10.0, [10.0]),
            (10.0, [0.0, 7.0, 0.0]),
            (10.0, [3.0, 3.0, 3.0, 3.0]),
            (7.0, [1.0, 9.0, 2.0, 0.0, 5.0]),
            (1e9, [1e-12, 1e9, 2e9]),
            (mbps(6), [292000.0, 292000.0, 292000.0]),  # D3 split demands
        ]
        for capacity, demands in cases:
            assert water_fill(capacity, demands) == _water_fill_reference(
                capacity, demands
            ), (capacity, demands)

    def test_property_equal_to_reference(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        rates = st.one_of(
            st.floats(min_value=0.0, max_value=1e10, allow_nan=False),
            st.sampled_from([0.0, 1e-13, 1e-12, 1168000.0, 2.5e7]),
        )

        @settings(max_examples=300, deadline=None)
        @given(capacity=rates, demands=st.lists(rates, max_size=8))
        def check(capacity, demands):
            assert water_fill(capacity, demands) == _water_fill_reference(
                capacity, demands
            )

        check()


class TestTcpConnection:
    def test_handshake_costs_one_rtt(self):
        conn = TcpConnection("c", rtt_s=0.1)
        transfer = Transfer(total_bytes=1000)
        conn.start_transfer(transfer, now=0.0)
        assert conn.state is TcpConnectionState.CONNECTING
        assert conn.rate_cap_bps() == 0.0
        conn.advance_control(0.1)
        assert conn.state is TcpConnectionState.ESTABLISHED
        # request latency still pending -> no bytes yet
        assert conn.rate_cap_bps() == 0.0
        conn.advance_control(0.1)
        assert conn.rate_cap_bps() > 0.0

    def test_slow_start_doubles_per_rtt(self):
        conn = TcpConnection("c", rtt_s=0.1)
        conn.start_transfer(Transfer(total_bytes=10_000_000), now=0.0)
        conn.advance_control(0.1)
        conn.advance_control(0.1)
        initial_cap = conn.rate_cap_bps()
        assert initial_cap == pytest.approx(INITIAL_CWND_BYTES * 8 / 0.1)
        conn.deliver(INITIAL_CWND_BYTES, now=0.3)
        assert conn.rate_cap_bps() == pytest.approx(2 * initial_cap)

    def test_cwnd_capped(self):
        conn = TcpConnection("c", rtt_s=0.05, max_cwnd_bytes=100_000)
        conn.start_transfer(Transfer(total_bytes=10_000_000), now=0.0)
        conn.advance_control(0.05)
        conn.advance_control(0.05)
        conn.deliver(5_000_000, now=1.0)
        assert conn.cwnd_bytes == 100_000

    def test_transfer_completion(self):
        conn = TcpConnection("c", rtt_s=0.05)
        done = []
        transfer = Transfer(total_bytes=100, on_complete=done.append)
        conn.start_transfer(transfer, now=0.0)
        conn.advance_control(0.05)
        conn.advance_control(0.05)
        result = conn.deliver(100, now=0.2)
        assert result is transfer
        assert transfer.complete
        assert transfer.completed_at == 0.2
        assert conn.transfer is None

    def test_idle_restart_resets_cwnd(self):
        conn = TcpConnection("c", rtt_s=0.05, idle_restart_s=1.0)
        conn.start_transfer(Transfer(total_bytes=100), now=0.0)
        conn.advance_control(0.05)
        conn.advance_control(0.05)
        conn.deliver(100, now=0.2)
        grown = conn.cwnd_bytes
        assert grown > INITIAL_CWND_BYTES
        conn.start_transfer(Transfer(total_bytes=100), now=5.0)  # long idle
        assert conn.cwnd_bytes == INITIAL_CWND_BYTES

    def test_quick_reuse_keeps_cwnd(self):
        conn = TcpConnection("c", rtt_s=0.05, idle_restart_s=1.0)
        conn.start_transfer(Transfer(total_bytes=100_000), now=0.0)
        conn.advance_control(0.05)
        conn.advance_control(0.05)
        conn.deliver(100_000, now=0.2)
        grown = conn.cwnd_bytes
        conn.start_transfer(Transfer(total_bytes=100), now=0.5)
        assert conn.cwnd_bytes == grown

    def test_nonpersistent_reconnect_counts(self):
        conn = TcpConnection("c", rtt_s=0.05)
        conn.start_transfer(Transfer(total_bytes=10), now=0.0)
        conn.advance_control(0.05)
        conn.advance_control(0.05)
        conn.deliver(10, now=0.2)
        conn.close()
        conn.start_transfer(Transfer(total_bytes=10), now=0.3)
        assert conn.connects == 2
        assert conn.state is TcpConnectionState.CONNECTING

    def test_cannot_double_book(self):
        conn = TcpConnection("c")
        conn.start_transfer(Transfer(total_bytes=10), now=0.0)
        with pytest.raises(RuntimeError):
            conn.start_transfer(Transfer(total_bytes=10), now=0.0)

    def test_in_steady_transfer_phases(self):
        conn = TcpConnection("c", rtt_s=0.05)
        assert not conn.in_steady_transfer  # closed, idle
        conn.start_transfer(Transfer(total_bytes=1000), now=0.0)
        assert not conn.in_steady_transfer  # handshaking
        conn.advance_control(0.1)
        assert not conn.in_steady_transfer  # request latency pending
        conn.advance_control(0.1)
        assert conn.in_steady_transfer
        conn.deliver(1000, now=0.2)
        assert not conn.in_steady_transfer  # transfer done

    def test_close_with_transfer_fails(self):
        conn = TcpConnection("c")
        conn.start_transfer(Transfer(total_bytes=10), now=0.0)
        with pytest.raises(RuntimeError):
            conn.close()


class TestBottleneckLink:
    def _ready_connection(self, name="c", rtt=0.05, size=10_000_000):
        conn = TcpConnection(name, rtt_s=rtt)
        conn.start_transfer(Transfer(total_bytes=size), now=0.0)
        conn.advance_control(rtt)
        conn.advance_control(rtt)
        return conn

    def test_byte_conservation(self):
        link = BottleneckLink()
        link.set_capacity(mbps(8))
        conns = [self._ready_connection(f"c{i}") for i in range(3)]
        for _ in range(100):
            link.advance(conns, dt=0.1, now=0.0)
        capacity_bytes = mbps(8) / 8 * 10.0
        assert link.total_bytes_delivered <= capacity_bytes + 1
        total = sum(c.total_bytes_received for c in conns)
        assert total == pytest.approx(link.total_bytes_delivered)

    def test_fair_share(self):
        link = BottleneckLink()
        link.set_capacity(mbps(10))
        a = self._ready_connection("a")
        b = self._ready_connection("b")
        # Grow both windows well past the share first.
        for _ in range(200):
            link.advance([a, b], dt=0.1, now=0.0)
        a_before, b_before = a.total_bytes_received, b.total_bytes_received
        for _ in range(10):
            link.advance([a, b], dt=0.1, now=0.0)
        a_delta = a.total_bytes_received - a_before
        b_delta = b.total_bytes_received - b_before
        assert a_delta == pytest.approx(b_delta, rel=0.01)

    def test_completion_reported(self):
        link = BottleneckLink()
        link.set_capacity(mbps(10))
        conn = self._ready_connection(size=1000)
        completed = link.advance([conn], dt=0.1, now=1.0)
        assert len(completed) == 1
        assert completed[0].complete


class TestSlowStartHorizon:
    def _steady(self, total_bytes, *, cwnd=None, max_cwnd=None):
        kwargs = {"max_cwnd_bytes": max_cwnd} if max_cwnd else {}
        conn = TcpConnection("c", rtt_s=0.05, **kwargs)
        conn.start_transfer(Transfer(total_bytes=total_bytes), now=0.0)
        conn.advance_control(0.05)
        conn.advance_control(0.05)
        if cwnd is not None:
            conn.cwnd_bytes = float(cwnd)
        return conn

    def test_no_transfer_is_zero(self):
        conn = TcpConnection("c")
        assert conn.slow_start_horizon_ticks(mbps(5), 0.1, 100) == 0

    def test_zero_capacity_never_completes(self):
        conn = self._steady(100_000)
        assert conn.slow_start_horizon_ticks(0.0, 0.1, 750) == 750

    def test_clamped_by_max_ticks(self):
        conn = self._steady(10**9)
        assert conn.slow_start_horizon_ticks(mbps(1), 0.1, 7) == 7

    def test_never_undershoots_completion(self):
        """Bias-high contract: horizon >= the count of non-completing ticks.

        The batched replay stops itself exactly, so overshooting is
        free; undershooting would strand batchable ticks on the serial
        path.  Checked against an exact serial single-connection replay
        across slow-start, capacity-limited and cwnd-capped regimes.
        """
        dt = 0.1
        for capacity in [mbps(0.3), mbps(2), mbps(40), 1e9]:
            for total in [2_000, 170_000, 2_500_000]:
                for cwnd in [None, 40_000, 4 * 1024 * 1024]:
                    conn = self._steady(total, cwnd=cwnd)
                    horizon = conn.slow_start_horizon_ticks(capacity, dt, 10_000)
                    safe_ticks = 0
                    while True:
                        demand = conn.rate_cap_bps()
                        if capacity <= 1e-12:
                            alloc = 0.0
                        elif demand <= capacity + 1e-12:
                            alloc = demand
                        else:
                            alloc = capacity
                        num_bytes = alloc * dt / 8.0
                        transfer = conn.transfer
                        delivered = min(num_bytes, transfer.remaining_bytes)
                        if (
                            transfer.delivered_bytes + delivered
                            >= transfer.total_bytes - 1e-6
                        ):
                            break
                        conn.deliver(num_bytes, now=0.0)
                        safe_ticks += 1
                    label = (capacity, total, cwnd)
                    assert horizon >= safe_ticks, label
                    assert horizon <= safe_ticks + 2, label


class _EchoServer:
    def handle(self, request):
        if request.url.endswith("missing"):
            return ResponsePlan.error(HttpStatus.NOT_FOUND)
        return ResponsePlan.ok_opaque(50_000)


class TestNetwork:
    def _network(self):
        clock = Clock(dt=0.1)
        return clock, Network(clock, _EchoServer(), ConstantSchedule(mbps(4)))

    def test_request_response_cycle(self):
        clock, network = self._network()
        conn = network.new_connection()
        responses = []
        network.request(conn, HttpRequest(url="http://x/a"), responses.append)
        for _ in range(100):
            network.advance(clock.dt)
            clock.tick()
            if responses:
                break
        assert responses
        response = responses[0]
        assert response.is_success
        assert response.size_bytes == 50_000
        assert response.completed_at > response.started_at
        assert response.first_byte_at > response.started_at

    def test_error_response_delivered(self):
        clock, network = self._network()
        conn = network.new_connection()
        responses = []
        network.request(conn, HttpRequest(url="http://x/missing"),
                        responses.append)
        for _ in range(50):
            network.advance(clock.dt)
            clock.tick()
        assert responses and not responses[0].is_success

    def test_throughput_close_to_link(self):
        clock, network = self._network()
        conn = network.new_connection()
        responses = []
        network.request(
            conn, HttpRequest(url="http://x/big"), responses.append
        )
        while not responses:
            network.advance(clock.dt)
            clock.tick()
        # 50 KB at 4 Mbps ~ 0.1s + 2 RTT; goodput should be within 2x.
        assert responses[0].throughput_bps > mbps(1)

    def test_rejects_unknown_connection(self):
        clock, network = self._network()
        foreign = TcpConnection("foreign")
        with pytest.raises(RuntimeError):
            network.request(foreign, HttpRequest(url="u"), lambda r: None)

    def test_drop_connection(self):
        clock, network = self._network()
        conn = network.new_connection()
        network.drop_connection(conn)
        assert conn not in network.connections


class _SizedServer:
    def __init__(self, size_bytes):
        self.size_bytes = size_bytes

    def handle(self, request):
        return ResponsePlan.ok_opaque(self.size_bytes)


class TestAdvanceMany:
    """Batched delivery must replay the serial loop bit-for-bit."""

    def _session_pair(self, size_bytes, n_conns):
        schedule = TraceSchedule.from_samples([mbps(4), mbps(1), mbps(6)])
        nets = []
        for _ in range(2):
            clock = Clock(dt=0.1)
            network = Network(clock, _SizedServer(size_bytes), schedule)
            done = []
            for i in range(n_conns):
                conn = network.new_connection()
                network.request(
                    conn,
                    HttpRequest(url=f"/seg{i}", method=HttpMethod.GET),
                    done.append,
                )
            nets.append((clock, network, done))
        return nets

    @pytest.mark.parametrize(
        "size_bytes,n_conns", [(5_000_000, 1), (5_000_000, 3), (100_000, 2)]
    )
    def test_matches_serial_exactly(self, size_bytes, n_conns):
        (clock_a, net_a, done_a), (clock_b, net_b, done_b) = self._session_pair(
            size_bytes, n_conns
        )
        n = 100
        serial_activity = []
        for _ in range(n):
            before = net_a.link.total_bytes_delivered
            net_a.advance(0.1)
            serial_activity.append(net_a.link.total_bytes_delivered > before)
            clock_a.tick()
        batched_activity = []
        ticks = 0
        while ticks < n:
            executed, activity, reason = net_b.advance_many(n - ticks, 0.1)
            if executed == 0:
                assert reason == "completion"
                before = net_b.link.total_bytes_delivered
                net_b.advance(0.1)
                batched_activity.append(
                    net_b.link.total_bytes_delivered > before
                )
                clock_b.tick()
                ticks += 1
                continue
            batched_activity.extend(activity)
            for _ in range(executed):
                clock_b.tick()
            ticks += executed
        assert batched_activity == serial_activity
        assert net_b.link.total_bytes_delivered == net_a.link.total_bytes_delivered
        assert net_b.link.capacity_bps == net_a.link.capacity_bps
        assert len(done_a) == len(done_b)
        for response_a, response_b in zip(done_a, done_b):
            assert response_a.completed_at == response_b.completed_at
            assert response_a.first_byte_at == response_b.first_byte_at
        for conn_a, conn_b in zip(net_a.connections, net_b.connections):
            assert conn_b.cwnd_bytes == conn_a.cwnd_bytes
            assert conn_b.total_bytes_received == conn_a.total_bytes_received
            assert (conn_b.transfer is None) == (conn_a.transfer is None)
            if conn_a.transfer is not None:
                assert (
                    conn_b.transfer.delivered_bytes
                    == conn_a.transfer.delivered_bytes
                )
                assert (
                    conn_b.transfer.first_byte_at == conn_a.transfer.first_byte_at
                )

    def test_stop_reason_agrees_with_serial_replay(self):
        """Property: each reported stop reason is verifiable on a twin.

        The event engine trusts ``completion`` enough to dispatch the
        next tick without re-probing, so a misreported reason is a
        correctness bug, not a performance one.  A serially-replayed
        twin network checks every claim: ``completion`` means the very
        next tick finishes a transfer, ``horizon`` means the full
        request was executed.  Bandwidth change points end no batch.
        """
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=60, deadline=None)
        @given(
            size_bytes=st.sampled_from(
                [40_000, 250_000, 1_200_000, 5_000_000]
            ),
            n_conns=st.integers(1, 3),
            chunks=st.lists(st.integers(1, 40), min_size=1, max_size=15),
        )
        def check(size_bytes, n_conns, chunks):
            pair = self._session_pair(size_bytes, n_conns)
            (clock_a, net_a, done_a), (clock_b, net_b, done_b) = pair
            dt = 0.1
            for chunk in chunks:
                executed, _, reason = net_b.advance_many(chunk, dt)
                for _ in range(executed):
                    clock_b.tick()
                # Twin replays the same window serially.
                for _ in range(executed):
                    net_a.advance(dt)
                    clock_a.tick()
                if reason == "horizon":
                    assert executed == chunk
                elif reason == "completion":
                    before = len(done_a)
                    net_a.advance(dt)
                    clock_a.tick()
                    net_b.advance(dt)
                    clock_b.tick()
                    assert len(done_a) > before
                    assert len(done_b) == len(done_a)
                else:  # pragma: no cover - no faults in this network
                    raise AssertionError(f"unexpected reason {reason!r}")
                assert clock_a.now == clock_b.now
                assert (
                    net_a.link.total_bytes_delivered
                    == net_b.link.total_bytes_delivered
                )

        check()


# The stop reason of the walks below, which ended a batch at every
# capacity change point.
ADVANCE_SCHEDULE = "schedule"


def _link_advance_all(self, connections, dt, now):
    """``BottleneckLink.advance`` as it walked every connection before
    the busy-only walk, kept verbatim (``self`` is the link)."""
    check_positive("dt", dt)
    for connection in connections:
        connection.advance_control(dt)
    if len(connections) == 1:
        demand = connections[0].rate_cap_bps()
        if demand <= 0 or self.capacity_bps <= 1e-12:
            allocations = (0.0,)
        elif demand <= self.capacity_bps + 1e-12:
            allocations = (demand,)
        else:
            allocations = (self.capacity_bps,)
    else:
        demands = [connection.rate_cap_bps() for connection in connections]
        allocations = allocate(self.capacity_bps, demands)
    completed = []
    for connection, rate_bps in zip(connections, allocations):
        num_bytes = rate_bps * dt / 8.0
        if num_bytes <= 0:
            continue
        before = connection.total_bytes_received
        transfer = connection.deliver(num_bytes, now)
        self.total_bytes_delivered += connection.total_bytes_received - before
        if transfer is not None:
            completed.append(transfer)
    return completed


def _advance_many_all(self, max_ticks, dt):
    """``Network.advance_many`` as it walked every connection before the
    busy-only walk, kept verbatim (``self`` is the network)."""
    link = self.link
    t = self.clock.now
    clamp_reason = ADVANCE_HORIZON
    if self.schedule is not None:
        change_at = self.schedule.next_change_at(t)
        if change_at != math.inf:
            clamp = int((change_at - t - 1e-9) / dt) + 1
            if clamp < max_ticks:
                max_ticks = clamp
                clamp_reason = ADVANCE_SCHEDULE
        capacity = self.schedule.bandwidth_at(t)
    else:
        capacity = link.capacity_bps
    base_capacity = capacity
    if self.faults is not None:
        fault_change = self.faults.next_change_at(t)
        if fault_change != math.inf:
            if fault_change <= t + 1e-9:
                return 0, [], ADVANCE_FAULT
            clamp = int((fault_change - t - 1e-9) / dt) + 1
            if clamp < max_ticks:
                max_ticks = clamp
                clamp_reason = ADVANCE_FAULT
        if self.faults.dead_air_at(t):
            capacity = 0.0
    connections = self.connections
    executed = 0
    activity = []
    while executed < max_ticks:
        saved = [
            (
                c.state,
                c._handshake_remaining_s,
                c._request_latency_remaining_s,
            )
            for c in connections
        ]
        for connection in connections:
            connection.advance_control(dt)
        if len(connections) == 1:
            demand = connections[0].rate_cap_bps()
            if demand <= 0 or capacity <= 1e-12:
                allocations = (0.0,)
            elif demand <= capacity + 1e-12:
                allocations = (demand,)
            else:
                allocations = (capacity,)
        else:
            demands = [c.rate_cap_bps() for c in connections]
            allocations = allocate(capacity, demands)
        plan = []
        completing = False
        for connection, rate_bps in zip(connections, allocations):
            num_bytes = rate_bps * dt / 8.0
            if num_bytes <= 0:
                continue
            transfer = connection.transfer
            delivered = min(num_bytes, transfer.remaining_bytes)
            if (
                transfer.delivered_bytes + delivered
                >= transfer.total_bytes - 1e-6
            ):
                completing = True
                break
            plan.append((connection, transfer, delivered))
        if completing:
            for connection, (state, handshake, latency) in zip(
                connections, saved
            ):
                connection.state = state
                connection._handshake_remaining_s = handshake
                connection._request_latency_remaining_s = latency
            clamp_reason = ADVANCE_COMPLETION
            break
        before_link = link.total_bytes_delivered
        for connection, transfer, delivered in plan:
            if transfer.first_byte_at is None:
                transfer.first_byte_at = t
            transfer.delivered_bytes += delivered
            before = connection.total_bytes_received
            connection.total_bytes_received = before + delivered
            connection.cwnd_bytes = min(
                connection.cwnd_bytes + delivered, connection.max_cwnd_bytes
            )
            link.total_bytes_delivered += (
                connection.total_bytes_received - before
            )
        activity.append(link.total_bytes_delivered > before_link)
        t = round(t + dt, 9)
        executed += 1
    if executed and self.schedule is not None:
        link.set_capacity(base_capacity)
    return executed, activity, clamp_reason


def _advance_many_clamped(self, max_ticks, dt):
    """``Network.advance_many`` as it walked busy connections and
    stopped at every capacity change point, kept verbatim (``self`` is
    the network)."""
    check_positive("dt", dt)
    link = self.link
    t = self.clock.now
    clamp_reason = ADVANCE_HORIZON
    if self.schedule is not None:
        change_at = self.schedule.next_change_at(t)
        if change_at != math.inf:
            # Largest n with every tick start t + k*dt (k < n)
            # strictly before the change.
            clamp = int((change_at - t - 1e-9) / dt) + 1
            if clamp < max_ticks:
                max_ticks = clamp
                clamp_reason = ADVANCE_SCHEDULE
        capacity = self.schedule.bandwidth_at(t)
    else:
        capacity = link.capacity_bps
    base_capacity = capacity
    if self.faults is not None:
        fault_change = self.faults.next_change_at(t)
        if fault_change != math.inf:
            if fault_change <= t + 1e-9:
                # An unfired (possibly no-op) reset is due: the
                # serial path must execute this tick so the reset
                # cursor advances exactly as in a serial run.
                return 0, [], ADVANCE_FAULT
            clamp = int((fault_change - t - 1e-9) / dt) + 1
            if clamp < max_ticks:
                max_ticks = clamp
                clamp_reason = ADVANCE_FAULT
        if self.faults.dead_air_at(t):
            capacity = 0.0
    # No transfer starts or ends inside a window, so the busy set is
    # fixed for the call (a handshake that completes without a
    # transfer leaves a connection whose steps stay no-ops).  Only
    # connections not yet in steady transfer have countdowns to run,
    # save and restore; the steady ones' control steps are no-ops.
    connections = [c for c in self.connections if c.busy]
    pending = [c for c in connections if not c.in_steady_transfer]
    executed = 0
    activity: list[bool] = []
    while executed < max_ticks:
        if pending:
            saved = [
                (
                    c,
                    c.state,
                    c._handshake_remaining_s,
                    c._request_latency_remaining_s,
                )
                for c in pending
            ]
            for connection in pending:
                connection.advance_control(dt)
        if len(connections) == 1:
            # Mirror of the single-connection fast path in
            # BottleneckLink.advance.
            demand = connections[0].rate_cap_bps()
            if demand <= 0 or capacity <= 1e-12:
                allocations: tuple[float, ...] | list[float] = (0.0,)
            elif demand <= capacity + 1e-12:
                allocations = (demand,)
            else:
                allocations = (capacity,)
        else:
            demands = [c.rate_cap_bps() for c in connections]
            allocations = allocate(capacity, demands)
        # Plan the tick; commit only if no transfer would complete.
        plan = []
        completing = False
        for connection, rate_bps in zip(connections, allocations):
            num_bytes = rate_bps * dt / 8.0
            if num_bytes <= 0:
                continue
            transfer = connection.transfer
            delivered = min(num_bytes, transfer.remaining_bytes)
            if (
                transfer.delivered_bytes + delivered
                >= transfer.total_bytes - 1e-6
            ):
                completing = True
                break
            plan.append((connection, transfer, delivered))
        if completing:
            # advance_control already ran for this aborted tick;
            # put the countdowns back so the serial tick that takes
            # over replays them identically.
            if pending:
                for connection, state, handshake, latency in saved:
                    connection.state = state
                    connection._handshake_remaining_s = handshake
                    connection._request_latency_remaining_s = latency
            clamp_reason = ADVANCE_COMPLETION
            break
        before_link = link.total_bytes_delivered
        for connection, transfer, delivered in plan:
            if transfer.first_byte_at is None:
                transfer.first_byte_at = t
            transfer.delivered_bytes += delivered
            before = connection.total_bytes_received
            connection.total_bytes_received = before + delivered
            connection.cwnd_bytes = min(
                connection.cwnd_bytes + delivered, connection.max_cwnd_bytes
            )
            link.total_bytes_delivered += (
                connection.total_bytes_received - before
            )
        activity.append(link.total_bytes_delivered > before_link)
        t = round(t + dt, 9)
        executed += 1
        if pending:
            pending = [c for c in pending if not c.in_steady_transfer]
    if executed and self.schedule is not None:
        # The serial loop re-asserts the (identical) capacity every
        # tick; leave the link in the same state.  Under dead air
        # the serial tick restores the schedule capacity afterwards,
        # so mirror that by asserting the un-faulted value.
        link.set_capacity(base_capacity)
    return executed, activity, clamp_reason


def _fault_horizon_ticks(network, max_ticks, dt):
    """Ticks strictly before the next fault change point, at most
    ``max_ticks`` (0 when one is due now): the fault clamp of
    ``advance_many``, the way the event engine's queue applies it."""
    if network.faults is None:
        return max_ticks
    now = network.clock.now
    change = network.faults.next_change_at(now)
    if change == math.inf:
        return max_ticks
    if change <= now + 1e-9:
        return 0
    return min(max_ticks, int((change - now - 1e-9) / dt) + 1)


def _chain(walk, network, max_ticks, dt):
    """Drive a walk that stops at capacity change points the way the
    event engine drove it: after each ``schedule`` stop, advance the
    clock and call it again for the ticks left, unless the stop is also
    a fault change point (a queue event, which the engine dispatched
    instead).  Returns the total ticks, the concatenated activity and
    the stop reason; the clock ends advanced by the total."""
    executed, activity = 0, []
    while True:
        left = max_ticks - executed
        fault_at = _fault_horizon_ticks(network, left, dt)
        ticks, more, reason = walk(network, left, dt)
        network.clock.advance(ticks)
        executed += ticks
        activity += more
        if reason != ADVANCE_SCHEDULE:
            return executed, activity, reason
        if ticks == fault_at:
            return executed, activity, ADVANCE_FAULT


def _transfer_state(transfer):
    if transfer is None:
        return None
    return repr((transfer.total_bytes, transfer.delivered_bytes,
                 transfer.started_at, transfer.first_byte_at,
                 transfer.completed_at, transfer.aborted))


def _network_state(network):
    connections = [
        repr((c.conn_id, c.state, c.cwnd_bytes, c.total_bytes_received,
              c.connects, c._handshake_remaining_s,
              c._request_latency_remaining_s, c._idle_since))
        + str(_transfer_state(c.transfer))
        for c in network.connections
    ]
    link = network.link
    return connections, repr((link.capacity_bps, link.total_bytes_delivered))


class _PathSizedServer:
    """Serves ``/<n>`` as an ``n``-byte body."""

    def handle(self, request):
        return ResponsePlan.ok_opaque(int(request.url.lstrip("/")))


def _mixed_network(kinds, size_bytes, dead_air):
    """A network holding every kind of connection the link may see.

    ``kinds`` counts, in order: closed (never used), idle (established,
    transfer done), reclosed (idle, then closed), steady (past handshake
    and request latency), connected without a transfer, handshaking
    with a transfer, and waiting out request latency.  Dead air, when
    asked for, starts a few ticks after setup and lasts a few more.
    """
    closed, idle, reclosed, steady, bare, handshaking, latency = kinds
    clock = Clock(dt=0.1)
    schedule = TraceSchedule.from_samples([mbps(6), mbps(2), mbps(9)])
    network = Network(clock, _PathSizedServer(), schedule)

    def request(connection, size=size_bytes):
        network.request(connection, HttpRequest(url=f"/{size}"),
                        lambda response: None)

    def run_until(done):
        while not done():
            network.advance(clock.dt)
            clock.tick()

    for _ in range(closed):
        network.new_connection("closed")
    finished = [network.new_connection("idle")
                for _ in range(idle + reclosed + latency)]
    for connection in finished:
        request(connection, size=3_000)
    run_until(lambda: all(c.transfer is None for c in finished))
    for connection in finished[idle:idle + reclosed]:
        connection.close()
    running = [network.new_connection("steady") for _ in range(steady)]
    for connection in running:
        request(connection, size=50_000_000)
    run_until(lambda: all(c.in_steady_transfer for c in running))
    for _ in range(bare):
        network.new_connection("bare").connect(clock.now)
    for _ in range(handshaking):
        request(network.new_connection("handshaking"))
    for connection in finished[idle + reclosed:]:
        request(connection)
    if dead_air:
        network.faults = TransportFaultPlane(dead_air=(
            DeadAirWindow(clock.now + 0.25, clock.now + 0.75),))
    return clock, network


KINDS = st.tuples(*(st.integers(0, 2) for _ in range(7))).filter(
    lambda kinds: sum(kinds) > 0)


def _assert_one_call_equals_the_chain(walk, chained, single, chunks):
    """Each ``advance_many`` call on ``single`` equals ``walk`` chained
    over the same ticks on the twin ``chained``: ticks, activity, stop
    reason, clock and every connection, transfer and link total.  A
    completion or fault stop hands the next tick to the serial path on
    both."""
    clock_a, net_a = chained
    clock_b, net_b = single
    assert _network_state(net_a) == _network_state(net_b)
    for chunk in chunks:
        if not net_b.steady_for_batching():
            break
        expected = _chain(walk, net_a, chunk, 0.1)
        got = net_b.advance_many(chunk, 0.1)
        clock_b.advance(got[0])
        assert got == expected
        assert clock_b.now == clock_a.now
        assert _network_state(net_a) == _network_state(net_b)
        if got[2] != ADVANCE_HORIZON or got[0] == 0:
            for clock, network in (chained, single):
                network.advance(0.1)
                clock.tick()
            assert _network_state(net_a) == _network_state(net_b)


class TestBusyOnlyWalk:
    """Idle connections drop out of the link walk without a trace: the
    busy-only walk leaves every connection, transfer and link total
    exactly where the all-connection walk leaves them."""

    @settings(max_examples=60, deadline=None)
    @given(kinds=KINDS,
           size_bytes=st.sampled_from([20_000, 300_000, 4_000_000]),
           dead_air=st.booleans())
    def test_link_advance_matches_the_full_walk(self, kinds, size_bytes,
                                                dead_air):
        clock_a, net_a = _mixed_network(kinds, size_bytes, dead_air)
        clock_b, net_b = _mixed_network(kinds, size_bytes, dead_air)
        assert _network_state(net_a) == _network_state(net_b)
        for _ in range(40):
            completed = []
            for clock, network, walk in (
                (clock_a, net_a, _link_advance_all),
                (clock_b, net_b, BottleneckLink.advance),
            ):
                now = clock.now
                dead = network.faults is not None and (
                    network.faults.dead_air_at(now))
                network.link.set_capacity(
                    0.0 if dead else network.schedule.bandwidth_at(now))
                done = walk(network.link, network.connections, 0.1, now)
                completed.append([_transfer_state(t) for t in done])
                clock.tick()
            assert completed[0] == completed[1]
            assert _network_state(net_a) == _network_state(net_b)

    @settings(max_examples=60, deadline=None)
    @given(kinds=KINDS,
           size_bytes=st.sampled_from([20_000, 300_000, 4_000_000]),
           dead_air=st.booleans(),
           chunks=st.lists(st.integers(1, 30), min_size=1, max_size=8))
    def test_advance_many_matches_the_full_walk(self, kinds, size_bytes,
                                                dead_air, chunks):
        _assert_one_call_equals_the_chain(
            _advance_many_all,
            _mixed_network(kinds, size_bytes, dead_air),
            _mixed_network(kinds, size_bytes, dead_air),
            chunks,
        )

    def test_advance_many_checks_dt_once(self):
        clock, network = _mixed_network((0, 1, 0, 0, 0, 0, 0), 20_000, False)
        with pytest.raises(ValueError):
            network.advance_many(5, 0.0)


class TestCapacitySteps:
    """One ``advance_many`` call replays the capacity steps inside its
    window: it equals the walk that stopped at each change point,
    chained the way the engines re-entered it."""

    @settings(max_examples=80, deadline=None)
    @given(kinds=KINDS,
           size_bytes=st.sampled_from([20_000, 300_000, 4_000_000]),
           dead_air=st.booleans(),
           data=st.data())
    def test_one_call_equals_the_clamped_chain(self, kinds, size_bytes,
                                               dead_air, data):
        window = data.draw(st.integers(2, 60), label="window")
        # 1-5 change points inside the first window, on tick starts
        # (where the clamp's 1e-9 margin decides) or between them.
        offsets = data.draw(st.lists(
            st.integers(1, window - 1), min_size=1, max_size=5, unique=True,
        ), label="offsets")
        phase = data.draw(st.sampled_from([0.0, 0.5]), label="phase")
        rates = data.draw(st.lists(
            st.sampled_from([mbps(0.5), mbps(2), mbps(6), mbps(30)]),
            min_size=len(offsets) + 1, max_size=len(offsets) + 1,
        ), label="rates")
        chunks = [window] + data.draw(
            st.lists(st.integers(1, 30), max_size=4), label="chunks")
        twins = []
        for _ in range(2):
            clock, network = _mixed_network(kinds, size_bytes, dead_air)
            starts = [clock.now + (k + phase) * 0.1 for k in sorted(offsets)]
            network.schedule = StepSchedule(
                steps=tuple(zip([0.0] + starts, rates)))
            twins.append((clock, network))
        _assert_one_call_equals_the_chain(
            _advance_many_clamped, twins[0], twins[1], chunks)


class TestHttpTypes:
    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            HttpRequest(url="u", byte_range=(10, 5))

    def test_range_length(self):
        assert HttpRequest(url="u", byte_range=(0, 99)).range_length == 100
        assert HttpRequest(url="u").range_length is None

    def test_plan_helpers(self):
        plan = ResponsePlan.ok_text("hello")
        assert plan.is_success and plan.size_bytes == 5
        plan = ResponsePlan.error(HttpStatus.FORBIDDEN)
        assert not plan.is_success
        plan = ResponsePlan.ok_data(b"abc", partial=True)
        assert plan.status is HttpStatus.PARTIAL_CONTENT

    def test_head_method_exists(self):
        assert HttpMethod.HEAD.value == "HEAD"
