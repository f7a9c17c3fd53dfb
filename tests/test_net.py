"""Unit tests for the network substrate: schedules, TCP, link, HTTP."""

import math
from types import SimpleNamespace

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
    LatencySpikeWindow,
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
import repro.net.link as link_module
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


fill_rates = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-11),   # below the epsilon
    st.floats(min_value=1e-12, max_value=10.0),  # tolerance band
    st.floats(min_value=0.0, max_value=5e7),     # realistic byte rates
    st.floats(min_value=0.0, max_value=1e10),
    st.sampled_from([1e-13, 1e-12, 1168000.0, 2.5e7]),
)

# Up to 64 flows, or a fleet-sized count: a drawn pattern repeated,
# which keeps long lists cheap to draw and makes many flows leave the
# same round together.
fill_lists = st.one_of(
    st.lists(fill_rates, max_size=64),
    st.builds(lambda pattern, n: (pattern * n)[:n],
              st.lists(fill_rates, min_size=1, max_size=16),
              st.integers(252, 260)),
)


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

    @settings(max_examples=800, deadline=None)
    @given(demands=fill_lists, data=st.data())
    def test_property_equal_to_reference(self, demands, data):
        capacity = data.draw(st.one_of(
            fill_rates,
            st.just(1e-12),
            st.floats(min_value=0.0, max_value=1e8),
            # The exhaustion branch: capacity near the demands' sum.
            st.just(sum(demands)),
            st.just(sum(demands) * 0.5),
        ))
        assert water_fill(capacity, demands) == _water_fill_reference(
            capacity, demands
        )


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
            executed, activity, reason, completed = net_b.advance_many(
                n - ticks, 0.1
            )
            batched_activity.extend(activity)
            if completed:
                # Fired at the completing tick's start, as a serial
                # tick fires them.
                assert reason == "completion"
                clock_b.advance(executed - 1)
                net_b.complete(completed)
                clock_b.tick()
            else:
                clock_b.advance(executed)
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

        The event engine trusts ``completion`` enough to fire the
        returned transfers at the last tick's start, so a misreported
        reason is a correctness bug, not a performance one.  A
        serially-replayed twin network checks every claim:
        ``completion`` means the last executed tick, and no earlier
        one, finishes exactly the returned transfers, ``horizon`` means
        the full request was executed without one.  Bandwidth change
        points end no batch.
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
                executed, _, reason, completed = net_b.advance_many(chunk, dt)
                # Twin replays the same window serially.
                for _ in range(executed):
                    before = len(done_a)
                    net_a.advance(dt)
                    clock_a.tick()
                if reason == "horizon":
                    assert executed == chunk
                    assert not completed
                    assert len(done_b) == len(done_a)
                    clock_b.advance(executed)
                elif reason == "completion":
                    assert len(done_a) - before == len(completed) > 0
                    clock_b.advance(executed - 1)
                    assert len(done_b) == before  # none fired yet
                    net_b.complete(completed)
                    clock_b.tick()
                    assert len(done_b) == len(done_a)
                else:  # pragma: no cover - no faults in this network
                    raise AssertionError(f"unexpected reason {reason!r}")
                assert clock_a.now == clock_b.now
                assert (
                    net_a.link.total_bytes_delivered
                    == net_b.link.total_bytes_delivered
                )

        check()

    def test_completions_come_back_unfired_in_busy_order(self):
        """A window fires no callback: it returns the transfers its last
        tick completed, in busy order, and the count stays 0 until the
        caller fires them with ``Network.complete`` at that tick's
        start.  Two equal bodies on equal connections complete on the
        same tick."""
        (clock, network, done), _ = self._session_pair(100_000, 2)
        transfers = [c.transfer for c in network.connections]
        executed, _, reason, completed = network.advance_many(60, 0.1)
        assert reason == ADVANCE_COMPLETION
        assert len(completed) == 2
        assert all(got is want for got, want in zip(completed, transfers))
        assert done == []
        clock.advance(executed - 1)
        network.complete(completed)
        assert [response.request.url for response in done] == [
            "/seg0", "/seg1"
        ]
        assert all(response.completed_at == clock.now for response in done)


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


def _link_advance_busy(self, connections, dt, now):
    """``BottleneckLink.advance`` as it walked the busy connections
    before the multi-flow kernel, kept verbatim (``self`` is the
    link)."""
    check_positive("dt", dt)
    busy = [connection for connection in connections if connection.busy]
    if not busy:
        return []
    for connection in busy:
        connection.advance_control(dt)
    if len(busy) == 1:
        # Single connection (every HLS service): skip the list
        # building and the water-fill call; the allocation collapses
        # to the same min-with-tolerance water_fill computes.
        demand = busy[0].rate_cap_bps()
        if demand <= 0 or self.capacity_bps <= 1e-12:
            allocations = (0.0,)
        elif demand <= self.capacity_bps + 1e-12:
            allocations = (demand,)
        else:
            allocations = (self.capacity_bps,)
    else:
        demands = [connection.rate_cap_bps() for connection in busy]
        allocations = allocate(self.capacity_bps, demands)
    completed = []
    for connection, rate_bps in zip(busy, allocations):
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


def _mixed_network(kinds, size_bytes, dead_air, *, rtt_s=0.05, extra_s=0.0):
    """A network holding every kind of connection the link may see.

    ``kinds`` counts, in order: closed (never used), idle (established,
    transfer done), reclosed (idle, then closed), steady (past handshake
    and request latency), connected without a transfer, handshaking
    with a transfer, and waiting out request latency.  Every connection
    has round-trip time ``rtt_s``; the handshaking and latency kinds'
    requests wait ``extra_s`` more, under a latency spike that ends 1 s
    after setup.  Dead air, when asked for, starts a few ticks after
    setup and lasts a few more.
    """
    closed, idle, reclosed, steady, bare, handshaking, latency = kinds
    clock = Clock(dt=0.1)
    schedule = TraceSchedule.from_samples([mbps(6), mbps(2), mbps(9)])
    network = Network(clock, _PathSizedServer(), schedule, rtt_s=rtt_s)

    def request(connection, size=size_bytes):
        network.request(connection, HttpRequest(url=f"/{size}"),
                        lambda response: None)

    def run_until(done):
        for _ in range(600):  # setup takes at most a few dozen ticks
            if done():
                return
            network.advance(clock.dt)
            clock.tick()
        raise AssertionError("setup never reached its state")

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
    spikes = ()
    if extra_s:
        spikes = (LatencySpikeWindow(0.0, clock.now + 1.0, extra_s),)
        network.faults = TransportFaultPlane(latency_spikes=spikes)
    for _ in range(handshaking):
        request(network.new_connection("handshaking"))
    for connection in finished[idle + reclosed:]:
        request(connection)
    if dead_air:
        network.faults = TransportFaultPlane(dead_air=(
            DeadAirWindow(clock.now + 0.25, clock.now + 0.75),),
            latency_spikes=spikes)
    return clock, network


KINDS = st.tuples(*(st.integers(0, 2) for _ in range(7))).filter(
    lambda kinds: sum(kinds) > 0)


def _completing_tick(link_walk, network, dt):
    """The serial tick a walk's ``completion`` stop handed over, with
    its completions left unfired: ``Network.advance``'s capacity steps
    around ``link_walk``, a verbatim link walk.  Returns whether it
    carried bytes and the transfers it completed; the clock ticks."""
    now = network.clock.now
    link = network.link
    capacity = network.schedule.bandwidth_at(now)
    dead = network.faults is not None and network.faults.dead_air_at(now)
    link.set_capacity(0.0 if dead else capacity)
    before = link.total_bytes_delivered
    completed = link_walk(link, network.connections, dt, now)
    link.set_capacity(capacity)
    network.clock.tick()
    return link.total_bytes_delivered > before, completed


def _completions(transfers, completed):
    """Each completed transfer's place among ``transfers`` (the
    connections' transfers before the call) and its final state."""
    return [
        (next(i for i, t in enumerate(transfers) if t is transfer),
         _transfer_state(transfer))
        for transfer in completed
    ]


def _assert_one_call_equals_the_chain(walk, chained, single, chunks,
                                      link_walk=_link_advance_busy):
    """Each ``advance_many`` call on ``single`` equals ``walk`` chained
    over the same ticks on the twin ``chained`` and, after a
    ``completion`` stop, the serial tick it handed over (``link_walk``):
    ticks, activity, stop reason, the completed transfers, unfired and
    in busy order, clock and every connection, transfer and link total.
    A fault stop hands the next tick to the serial path on both."""
    clock_a, net_a = chained
    clock_b, net_b = single
    assert _network_state(net_a) == _network_state(net_b)
    for chunk in chunks:
        if not net_b.steady_for_batching():
            break
        flows_a = [c.transfer for c in net_a.connections]
        flows_b = [c.transfer for c in net_b.connections]
        executed, activity, reason = _chain(walk, net_a, chunk, 0.1)
        completed = []
        if reason == ADVANCE_COMPLETION:
            carried, completed = _completing_tick(link_walk, net_a, 0.1)
            executed += 1
            activity.append(carried)
        got = net_b.advance_many(chunk, 0.1)
        clock_b.advance(got[0])
        assert got[:3] == (executed, activity, reason)
        assert _completions(flows_b, got[3]) == _completions(flows_a,
                                                             completed)
        assert clock_b.now == clock_a.now
        assert _network_state(net_a) == _network_state(net_b)
        if got[2] == ADVANCE_FAULT:
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
            link_walk=_link_advance_all,
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


# The phase the one busy connection is in when the window starts.
ONE_FLOW_PHASES = ("handshaking", "latency", "cwnd_limited",
                   "capacity_limited", "cwnd_cap")
ONE_FLOW_RATES = {
    "cwnd_limited": (mbps(20), mbps(40), mbps(80)),
    "cwnd_cap": (mbps(20), mbps(40), mbps(80)),
    "capacity_limited": (mbps(0.3), mbps(1), mbps(2)),
}
ALL_RATES = (mbps(0.3), mbps(2), mbps(6), mbps(40))
HUGE_BYTES = 50_000_000


def _one_flow_network(case, size_bytes):
    """A network whose only busy connection is in ``case.phase``.

    A closed and an idle connection sit beside it.  The schedule
    (``case.schedule``, built from the window's start time) and the dead
    air take effect when the window starts.  In the handshaking and
    latency phases the request is issued at that start, under a latency
    spike of ``case.extra_s``.
    """
    clock = Clock(dt=0.1)
    network = Network(clock, _PathSizedServer(), ConstantSchedule(mbps(6)),
                      rtt_s=case.rtt_s)

    def request(connection):
        network.request(connection, HttpRequest(url=f"/{size_bytes}"),
                        lambda response: None)

    def tick():
        network.advance(clock.dt)
        clock.tick()

    network.new_connection("closed")
    idle = network.new_connection("idle")
    network.request(idle, HttpRequest(url="/3000"), lambda response: None)
    while idle.transfer is not None:
        tick()
    if case.phase == "latency":
        flow = idle  # established: only the request latency is left
    else:
        flow = network.new_connection("flow")
    if case.phase not in ("handshaking", "latency"):
        request(flow)
        while not flow.in_steady_transfer:
            tick()
        for _ in range(case.warmup):
            tick()
    if case.phase == "cwnd_cap":
        # Slow start reaches the cap a few ticks into the window.
        flow.max_cwnd_bytes = int(flow.cwnd_bytes) + case.cwnd_headroom
    now = clock.now
    dead_air = {
        None: (),
        "ahead": (DeadAirWindow(now + 0.25, now + 0.75),),
        "now": (DeadAirWindow(now - 0.05, now + 0.35),),
    }[case.dead_air]
    network.faults = TransportFaultPlane(
        dead_air=dead_air,
        latency_spikes=(LatencySpikeWindow(0.0, now + 1.0, case.extra_s),),
    )
    if case.phase in ("handshaking", "latency"):
        request(flow)
    network.schedule = case.schedule(now)
    assert [c for c in network.connections if c.busy] == [flow]
    if case.phase == "handshaking":
        assert flow.state is TcpConnectionState.CONNECTING
    elif case.phase == "latency":
        assert flow._request_latency_remaining_s > case.extra_s
    else:
        assert flow.in_steady_transfer
    return clock, network, flow


def _size_completing_at(case, tick):
    """A body size whose transfer completes on window tick ``tick`` (or
    the first later tick that delivers enough), or a huge one that does
    not complete within the window.  A probe with a huge body replays
    the window serially: a body's size changes nothing before its last
    tick."""
    if tick is None:
        return HUGE_BYTES
    clock, network, flow = _one_flow_network(case, HUGE_BYTES)
    transfer = flow.transfer
    last = transfer.delivered_bytes
    for k in range(tick + 40):
        network.advance(clock.dt)
        clock.tick()
        reached = transfer.delivered_bytes
        total = math.floor(reached)
        if k >= tick and total > last + 1e-6:
            size = total - network.header_overhead_bytes
            if size >= 1:
                return size
        last = reached
    return HUGE_BYTES


@st.composite
def one_flow_cases(draw):
    phase = draw(st.sampled_from(ONE_FLOW_PHASES), label="phase")
    kind = draw(st.sampled_from(("constant", "step", "trace")), label="kind")
    window = draw(st.integers(2 if kind == "step" else 1, 60), label="window")
    rate = st.sampled_from(ONE_FLOW_RATES.get(phase, ALL_RATES))
    if kind == "constant":
        rates = [draw(rate, label="rate")]

        def schedule(now):
            return ConstantSchedule(rates[0])
    elif kind == "step":
        # 1-5 change points inside the window, on tick starts (where the
        # clamp's 1e-9 margin decides) or between them.
        offsets = sorted(draw(st.lists(
            st.integers(1, window - 1), min_size=1,
            max_size=min(5, window - 1), unique=True,
        ), label="offsets"))
        rates = draw(st.lists(rate, min_size=len(offsets) + 1,
                              max_size=len(offsets) + 1), label="rates")
        shift = draw(st.sampled_from([0.0, 0.5]), label="shift")

        def schedule(now):
            starts = [now + (k + shift) * 0.1 for k in offsets]
            return StepSchedule(steps=tuple(zip([0.0] + starts, rates)))
    else:
        rates = draw(st.lists(rate, min_size=2, max_size=6), label="rates")
        interval = draw(st.sampled_from([0.3, 1.0]), label="interval")

        def schedule(now):
            return TraceSchedule.from_samples(rates, interval)
    return SimpleNamespace(
        phase=phase,
        window=window,
        schedule=schedule,
        rtt_s=draw(st.sampled_from([0.05, 0.12, 0.25]), label="rtt_s"),
        extra_s=draw(st.sampled_from([0.0, 0.08, 0.35]), label="extra_s"),
        cwnd_headroom=draw(st.integers(1, 200_000), label="cwnd_headroom"),
        warmup=draw(st.integers(0, 4), label="warmup"),
        dead_air=draw(st.sampled_from([None, None, "ahead", "now"]),
                      label="dead_air"),
        completes_at=draw(st.one_of(st.none(), st.integers(0, 2),
                                    st.integers(3, 40)), label="completes_at"),
    )


class TestSingleFlowKernel:
    """With one busy connection ``advance_many`` runs the single-flow
    kernel.  In every phase that connection can start a window in, each
    call equals the walk that stopped at every change point, chained as
    the engines drove it, through the completing tick: ticks, activity,
    stop reason, completions, clock and every connection, transfer and
    link total, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=one_flow_cases(),
           chunks=st.lists(st.integers(1, 30), max_size=4))
    def test_one_call_equals_the_clamped_chain(self, case, chunks):
        size_bytes = _size_completing_at(case, case.completes_at)
        twins = [_one_flow_network(case, size_bytes)[:2] for _ in range(2)]
        _assert_one_call_equals_the_chain(
            _advance_many_clamped, twins[0], twins[1],
            [case.window] + chunks)

    @pytest.mark.parametrize("phase", ONE_FLOW_PHASES)
    @pytest.mark.parametrize("completes_at", [0, 1, 7])
    def test_completion_stops_before_the_drawn_tick(self, phase,
                                                    completes_at):
        """The size probe lands the completion where it was asked, so
        the property above covers windows that end on tick 0, tick 1
        and later: the window ends on the drawn tick."""
        case = SimpleNamespace(
            phase=phase, window=60, schedule=lambda now: ConstantSchedule(
                ONE_FLOW_RATES.get(phase, ALL_RATES)[1]),
            rtt_s=0.05, extra_s=0.0, cwnd_headroom=30_000, warmup=0,
            dead_air=None, completes_at=completes_at,
        )
        clock, network, flow = _one_flow_network(
            case, _size_completing_at(case, completes_at))
        transfer = flow.transfer
        executed, _, reason, completed = network.advance_many(60, 0.1)
        assert reason == ADVANCE_COMPLETION
        assert len(completed) == 1 and completed[0] is transfer
        # A handshake shorter than a tick leaves the request latency for
        # tick 1; a latency that short ends (and delivers) on tick 0.
        first = 1 if phase == "handshaking" else 0
        assert executed == max(completes_at, first) + 1

    def test_cwnd_reaches_its_cap_inside_a_window(self):
        case = SimpleNamespace(
            phase="cwnd_cap", window=60,
            schedule=lambda now: ConstantSchedule(mbps(80)), rtt_s=0.05,
            extra_s=0.0, cwnd_headroom=200_000, warmup=0, dead_air=None,
            completes_at=None,
        )
        clock, network, flow = _one_flow_network(case, HUGE_BYTES)
        assert flow.cwnd_bytes < flow.max_cwnd_bytes
        executed, _, reason, completed = network.advance_many(60, 0.1)
        assert (executed, reason, completed) == (60, ADVANCE_HORIZON, [])
        assert flow.cwnd_bytes == flow.max_cwnd_bytes


# Where, in busy order among the flows with a transfer, the flow whose
# body ends at a drawn window tick sits.
COMPLETING_POSITIONS = ("first", "middle", "last")
CELL_RATES = (mbps(0.5), mbps(2), mbps(6), mbps(30), mbps(150))


@st.composite
def cell_cases(draw):
    """A shared cell of 2-64 busy connections beside up to 60 idle ones.

    Up to 16 busy connections start the window pending: handshaking,
    waiting out request latency (an RTT of up to 0.25 s and a spike of
    up to 0.35 s turn them steady mid-window) or connecting without a
    transfer.  Capacity steps inside the first window, dead air and
    chunked calls follow.  When ``position`` is set, the flow at that
    place in busy order completes on window tick ``completes_at``.
    """
    busy = draw(st.integers(2, 64), label="busy")
    pending = draw(st.integers(0, min(busy - 1, 16)), label="pending")
    bare = draw(st.integers(0, min(pending, 4)), label="bare")
    handshaking = draw(st.integers(0, pending - bare), label="handshaking")
    idle = draw(st.tuples(*(st.integers(0, 20) for _ in range(3))),
                label="idle")
    window = draw(st.integers(2, 60), label="window")
    offsets = draw(st.lists(st.integers(1, window - 1), max_size=5,
                            unique=True), label="offsets")
    return SimpleNamespace(
        kinds=idle + (busy - pending, bare, handshaking,
                      pending - bare - handshaking),
        size_bytes=draw(st.sampled_from([20_000, 300_000, 4_000_000]),
                        label="size_bytes"),
        rtt_s=draw(st.sampled_from([0.05, 0.12, 0.25]), label="rtt_s"),
        extra_s=draw(st.sampled_from([0.0, 0.08, 0.35]), label="extra_s"),
        dead_air=draw(st.booleans(), label="dead_air"),
        window=window,
        offsets=sorted(offsets),
        phase=draw(st.sampled_from([0.0, 0.5]), label="phase"),
        rates=draw(st.lists(st.sampled_from(CELL_RATES),
                            min_size=len(offsets) + 1,
                            max_size=len(offsets) + 1), label="rates"),
        position=draw(st.sampled_from(COMPLETING_POSITIONS + (None,)),
                      label="position"),
        completes_at=draw(st.one_of(st.integers(0, 2), st.integers(3, 40)),
                          label="completes_at"),
    )


def _completing_flow(network, position):
    flows = [c for c in network.connections if c.busy and c.transfer]
    return flows[{"first": 0, "middle": len(flows) // 2, "last": -1}[position]]


def _cell_network(case, total_bytes):
    """``case``'s cell, with the flow at ``case.position`` (if any)
    carrying a ``total_bytes`` body.  A body's size changes nothing
    before its last tick."""
    clock, network = _mixed_network(case.kinds, case.size_bytes,
                                    case.dead_air, rtt_s=case.rtt_s,
                                    extra_s=case.extra_s)
    starts = [clock.now + (k + case.phase) * 0.1 for k in case.offsets]
    network.schedule = StepSchedule(
        steps=tuple(zip([0.0] + starts, case.rates)))
    if case.position is not None:
        _completing_flow(network, case.position).transfer.total_bytes = (
            total_bytes)
    return clock, network


def _total_completing_at(case):
    """A body total for ``case``'s drawn flow that completes on window
    tick ``case.completes_at`` (or the first later tick that delivers
    enough), found on a serial probe where that body is huge; a huge one
    when no flow is drawn or no tick in reach delivers."""
    if case.position is None:
        return HUGE_BYTES
    clock, network = _cell_network(case, HUGE_BYTES)
    transfer = _completing_flow(network, case.position).transfer
    last = transfer.delivered_bytes
    for k in range(case.completes_at + 40):
        network.advance(clock.dt)
        clock.tick()
        total = math.floor(transfer.delivered_bytes)
        if k >= case.completes_at and total > last + 1e-6:
            return total
        last = transfer.delivered_bytes
    return HUGE_BYTES


class TestMultiFlowKernel:
    """Cells of 2-64 busy connections run the multi-flow kernel: the
    serial tick and every batched window with two or more busy
    connections.  Each serial tick equals the verbatim busy-only walk,
    and each ``advance_many`` call equals the walk that stopped at every
    change point, chained as the engines drove it, through the
    completing tick: completions and every connection, transfer and link
    total, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(case=cell_cases())
    def test_link_advance_matches_the_busy_walk(self, case):
        total = _total_completing_at(case)
        twins = [_cell_network(case, total) for _ in range(2)]
        (clock_a, net_a), (clock_b, net_b) = twins
        assert _network_state(net_a) == _network_state(net_b)
        for _ in range(case.window):
            completed = []
            for clock, network, walk in (
                (clock_a, net_a, _link_advance_busy),
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

    @settings(max_examples=120, deadline=None)
    @given(case=cell_cases(),
           chunks=st.lists(st.integers(1, 30), max_size=4))
    def test_one_call_equals_the_clamped_chain(self, case, chunks):
        total = _total_completing_at(case)
        twins = [_cell_network(case, total) for _ in range(2)]
        _assert_one_call_equals_the_chain(
            _advance_many_clamped, twins[0], twins[1],
            [case.window] + chunks)

    @pytest.mark.parametrize("position", COMPLETING_POSITIONS)
    @pytest.mark.parametrize("completes_at", [0, 1, 7])
    def test_completion_stops_before_the_drawn_tick(self, position,
                                                    completes_at):
        """The size probe lands the completion where it was asked, in
        any place in busy order, so the properties above cover windows
        that end on their first tick and windows that end later: the
        window ends on the drawn tick."""
        case = SimpleNamespace(
            kinds=(3, 3, 3, 40, 0, 0, 0), size_bytes=20_000, rtt_s=0.05,
            extra_s=0.0, dead_air=False, offsets=[], phase=0.0,
            rates=[mbps(30)], position=position, completes_at=completes_at,
        )
        clock, network = _cell_network(case, _total_completing_at(case))
        flow = _completing_flow(network, position)
        transfer = flow.transfer
        executed, _, reason, completed = network.advance_many(60, 0.1)
        assert (executed, reason) == (completes_at + 1, ADVANCE_COMPLETION)
        assert len(completed) == 1 and completed[0] is transfer
        assert flow.transfer is None
        assert all(c.transfer for c in network.connections
                   if c.busy and c is not flow)

    def test_a_fleet_sized_cell_equals_the_clamped_chain(self):
        """A cell with 256 steady connections, plus pending ones and
        dead air, water-fills at least 256 flows a tick, and each call
        still equals the clamped chain."""
        kinds = (4, 4, 4, 256, 0, 2, 2)
        twins = [_mixed_network(kinds, 300_000, True) for _ in range(2)]
        calls = []
        original = link_module.allocate

        def counted(capacity, demands):
            calls.append(len(demands))
            return original(capacity, demands)

        link_module.allocate = counted
        try:
            _assert_one_call_equals_the_chain(
                _advance_many_clamped, twins[0], twins[1], [12, 20])
        finally:
            link_module.allocate = original
        assert calls
        assert min(calls) >= 256


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
