"""Network facade: ties schedule, link, connections and HTTP together.

The player issues :class:`HttpRequest`s on the connections it manages;
the network resolves them against the request handler (origin server,
usually wrapped by the measurement proxy), moves bytes each tick, and
invokes completion callbacks.  Observers (the proxy's flow recorder)
see every request start and completion.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Protocol

from repro.net.clock import Clock
from repro.net.faults import TransportFaultPlane
from repro.net.http import HttpRequest, HttpResponse, ResponsePlan
from repro.net.link import BottleneckLink, allocate
from repro.net.schedule import BandwidthSchedule
from repro.net.tcp import TcpConnection, TcpConnectionState, Transfer
from repro.util import check_non_negative, check_positive

DEFAULT_HEADER_OVERHEAD_BYTES = 360

# Stop reasons for :meth:`Network.advance_many` — *why* the batched
# micro-loop returned.  Callers use them for control flow (a
# ``completion`` means the very next tick completes a transfer and must
# run serially; no re-probe needed), metrics label them as-is.
ADVANCE_HORIZON = "horizon"  # executed everything the caller asked for
ADVANCE_COMPLETION = "completion"  # next tick would complete a transfer
ADVANCE_FAULT = "fault"  # clamped at (or stopped on) a fault change point


class NetworkObserver(Protocol):
    """Sees request starts and completions (used by the proxy)."""

    def on_request(
        self, request: HttpRequest, plan: ResponsePlan, connection_id: str, now: float
    ) -> None: ...

    def on_response(self, response: HttpResponse) -> None: ...


class Network:
    """One device's network stack behind the shaped cellular bottleneck."""

    def __init__(
        self,
        clock: Clock,
        handler,
        schedule: Optional[BandwidthSchedule] = None,
        *,
        rtt_s: float = 0.05,
        header_overhead_bytes: int = DEFAULT_HEADER_OVERHEAD_BYTES,
        faults: Optional[TransportFaultPlane] = None,
    ):
        check_non_negative("header_overhead_bytes", header_overhead_bytes)
        self.clock = clock
        self.handler = handler
        self.schedule = schedule
        self.faults = faults
        self.rtt_s = rtt_s
        self.header_overhead_bytes = header_overhead_bytes
        self.link = BottleneckLink()
        self.connections: list[TcpConnection] = []
        self.observers: list[NetworkObserver] = []
        self._conn_ids = itertools.count(1)

    # -- connection management --------------------------------------------

    def new_connection(self, label: str = "conn") -> TcpConnection:
        connection = TcpConnection(
            conn_id=f"{label}-{next(self._conn_ids)}", rtt_s=self.rtt_s
        )
        self.connections.append(connection)
        return connection

    def drop_connection(self, connection: TcpConnection) -> None:
        if connection.transfer is not None:
            raise RuntimeError(f"{connection.conn_id}: dropping mid-transfer")
        connection.close()
        self.connections.remove(connection)

    # -- requests -----------------------------------------------------------

    def request(
        self,
        connection: TcpConnection,
        request: HttpRequest,
        on_complete: Callable[[HttpResponse], None],
    ) -> Transfer:
        """Issue ``request`` on ``connection``; completion is async."""
        if connection not in self.connections:
            raise RuntimeError(f"unknown connection {connection.conn_id}")
        plan = self.handler.handle(request)
        now = self.clock.now
        # A fresh TCP connection is a new flow (new ephemeral port) in a
        # packet capture, so observers see an incarnation-qualified id.
        incarnation = connection.connects + (
            1
            if connection.transfer is None
            and connection.state is TcpConnectionState.CLOSED
            else 0
        )
        flow_id = f"{connection.conn_id}:{incarnation}"
        for observer in self.observers:
            observer.on_request(request, plan, flow_id, now)

        def finish(transfer: Transfer) -> None:
            if transfer.aborted:
                # Only a partial body arrived; don't surface payload.
                size = min(plan.size_bytes, int(transfer.delivered_bytes))
                text = data = None
            else:
                size = plan.size_bytes
                text, data = plan.text, plan.data
            response = HttpResponse(
                request=request,
                status=plan.status,
                size_bytes=size,
                connection_id=flow_id,
                started_at=transfer.started_at or now,
                first_byte_at=transfer.first_byte_at or self.clock.now,
                completed_at=self.clock.now,
                text=text,
                data=data,
                truncated=plan.truncated,
                aborted=transfer.aborted,
            )
            for observer in self.observers:
                observer.on_response(response)
            on_complete(response)

        transfer = Transfer(
            total_bytes=plan.size_bytes + self.header_overhead_bytes,
            on_complete=finish,
            context=request,
        )
        extra_latency = (
            self.faults.extra_latency_at(now) if self.faults is not None else 0.0
        )
        connection.start_transfer(transfer, now, extra_latency)
        return transfer

    def abort_transfer(self, connection: TcpConnection) -> None:
        """Tear down ``connection``'s in-flight transfer (timeout/reset).

        The completion callback fires immediately with an aborted
        response, so the client reacts on this very tick.
        """
        transfer = connection.abort(self.clock.now)
        if transfer is not None and transfer.on_complete is not None:
            transfer.on_complete(transfer)

    # -- time ---------------------------------------------------------------

    def advance(self, dt: float) -> None:
        """Move one tick of bytes and fire completion callbacks."""
        now = self.clock.now
        faults = self.faults
        if faults is not None and faults.resets_due(now):
            for connection in list(self.connections):
                if connection.transfer is not None:
                    self.abort_transfer(connection)
        if self.schedule is not None:
            self.link.set_capacity(self.schedule.bandwidth_at(now))
        if faults is not None and faults.dead_air_at(now):
            # Radio silence: zero capacity for this tick only; control
            # countdowns still run, like a zero-bandwidth schedule step.
            saved_capacity = self.link.capacity_bps
            self.link.set_capacity(0.0)
            completed = self.link.advance(self.connections, dt, now)
            self.link.set_capacity(saved_capacity)
        else:
            completed = self.link.advance(self.connections, dt, now)
        for transfer in completed:
            if transfer.on_complete is not None:
                transfer.on_complete(transfer)

    def metrics_into(self, metrics) -> None:
        """Record transport-level totals into a metrics registry.

        Called once at session end; all values are deterministic
        functions of the run's inputs (the sweep-aggregation contract).
        """
        metrics.counter("net.bytes_delivered").inc(
            self.link.total_bytes_delivered
        )
        metrics.counter("net.connections").inc(len(self.connections))
        metrics.counter("net.tcp_connects").inc(
            sum(connection.connects for connection in self.connections)
        )

    def steady_for_batching(self) -> bool:
        """True when batched ticks can replay this network exactly.

        Transfer completion is the only network event the batched
        micro-loop cannot replay (its callbacks reach the proxy and the
        player), and :meth:`advance_many` stops itself before any
        completing tick — so the only precondition left is that there is
        a download to batch through.  Handshake and request-latency
        countdowns are replayed tick-exactly inside the micro-loop.
        """
        return any(
            connection.transfer is not None for connection in self.connections
        )

    def advance_many(
        self, max_ticks: int, dt: float
    ) -> tuple[int, list[bool], str]:
        """Replay up to ``max_ticks`` download ticks in one call.

        Requires :meth:`steady_for_batching`.  Executes the exact
        per-tick arithmetic of :meth:`advance` — the same
        ``advance_control`` countdowns, same ``rate * dt / 8`` quanta,
        same delivery order, same float accumulation on
        ``delivered_bytes`` / ``total_bytes_received`` /
        ``total_bytes_delivered`` — while hoisting everything that is
        provably constant out of the loop: the schedule lookup (read
        again only on the tick whose start reaches ``next_change_at``,
        exactly as a fresh call at that instant would) and the
        completion callback scan (the loop stops *before* any tick that
        would complete a transfer, leaving it to the serial path;
        control state mutated while planning that tick is restored, so
        the serial tick re-runs it identically).  Fault change points
        clamp the window, so dead air neither starts nor stops inside
        it.

        Returns ``(ticks_executed, per_tick_radio_activity, reason)``
        where ``reason`` names why the loop returned (one of
        ``ADVANCE_HORIZON`` / ``ADVANCE_COMPLETION`` /
        ``ADVANCE_FAULT``).  ``completion`` is a promise: the very next
        tick completes a transfer, so the caller can dispatch it
        serially without a wasted re-probe.  The clock is NOT advanced
        — the caller replays clock/RRC/player effects.
        """
        check_positive("dt", dt)
        link = self.link
        schedule = self.schedule
        t = self.clock.now
        clamp_reason = ADVANCE_HORIZON
        dead_air = False
        if self.faults is not None:
            fault_change = self.faults.next_change_at(t)
            if fault_change != math.inf:
                if fault_change <= t + 1e-9:
                    # An unfired (possibly no-op) reset is due: the
                    # serial path must execute this tick so the reset
                    # cursor advances exactly as in a serial run.
                    return 0, [], ADVANCE_FAULT
                # Largest n with every tick start t + k*dt (k < n)
                # strictly before the change.
                clamp = int((fault_change - t - 1e-9) / dt) + 1
                if clamp < max_ticks:
                    max_ticks = clamp
                    clamp_reason = ADVANCE_FAULT
            dead_air = self.faults.dead_air_at(t)
        # The tick index at which the schedule is read next: the first
        # tick reads it, and every later read happens on the tick whose
        # start reaches a change point, as a fresh call there would.
        step_at = 0 if schedule is not None else max_ticks
        read_at = -1
        base_capacity = previous = link.capacity_bps
        capacity = 0.0 if dead_air else base_capacity
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
            if executed == step_at:
                read_at, previous = executed, base_capacity
                base_capacity = schedule.bandwidth_at(t)
                capacity = 0.0 if dead_air else base_capacity
                change_at = schedule.next_change_at(t)
                step_at = (
                    executed + int((change_at - t - 1e-9) / dt) + 1
                    if change_at != math.inf
                    else max_ticks
                )
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
                if read_at == executed:
                    base_capacity = previous  # no tick ran at this rate
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
        if executed and schedule is not None:
            # The serial loop asserts the schedule's capacity every tick;
            # leave the link as the last executed tick left it.  Under
            # dead air the serial tick restores the schedule capacity
            # afterwards, so mirror that by asserting the un-faulted
            # value.
            link.set_capacity(base_capacity)
        return executed, activity, clamp_reason
