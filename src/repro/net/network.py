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
from repro.net.link import BottleneckLink, plan_tick, scan_busy
from repro.net.schedule import BandwidthSchedule
from repro.net.tcp import TcpConnection, TcpConnectionState, Transfer
from repro.util import check_non_negative, check_positive

DEFAULT_HEADER_OVERHEAD_BYTES = 360

# Stop reasons for :meth:`Network.advance_many` — *why* the batched
# micro-loop returned.  Metrics label them as-is.
ADVANCE_HORIZON = "horizon"  # executed everything the caller asked for
ADVANCE_COMPLETION = "completion"  # the last tick completed a transfer
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
        if transfer is not None:
            self.complete([transfer])

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
        self.complete(completed)

    def complete(self, completed: list[Transfer]) -> None:
        """Fire the completion callbacks of ``completed``, in order: the
        transfers one tick completed, in busy order (:meth:`advance` for
        its own tick, the event loop for the tick that ends a batched
        window), or the transfer :meth:`abort_transfer` tore down."""
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

        Transfer completion is the only network event a batched window
        cannot finish (its callbacks reach the proxy and the player),
        and :meth:`advance_many` ends its window on the completing tick
        and hands the completions back unfired — so the only
        precondition left is that there is a download to batch through.
        Handshake and request-latency countdowns are replayed
        tick-exactly inside the micro-loop.
        """
        return any(
            connection.transfer is not None for connection in self.connections
        )

    def advance_many(
        self, max_ticks: int, dt: float
    ) -> tuple[int, list[bool], str, list[Transfer]]:
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
        completion callbacks (the window ends *on* the first tick that
        completes a transfer, delivered by the serial tick's own step,
        ``BottleneckLink.deliver``, and returns its completions
        unfired).  Fault change points clamp the window, so dead air
        neither starts nor stops inside it.  Tick start times are read
        from the clock's timeline, and only on the ticks that use them.
        One scan of the connections (:func:`~repro.net.link.scan_busy`)
        finds the busy set; one busy connection runs the single-flow
        kernel (:meth:`_advance_one_flow`), any other busy set the
        multi-flow kernel (:meth:`_advance_flows`), which plans its
        ticks with the serial tick's planner.

        Returns ``(ticks_executed, per_tick_radio_activity, reason,
        completed)`` where ``reason`` names why the loop returned (one
        of ``ADVANCE_HORIZON`` / ``ADVANCE_COMPLETION`` /
        ``ADVANCE_FAULT``).  On ``completion`` the last executed tick
        completed the transfers in ``completed``, in busy order; the
        caller fires them with :meth:`complete` once the clock stands
        at that tick's start.  The clock is NOT advanced — the caller
        replays clock/RRC/player effects.
        """
        check_positive("dt", dt)
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
                    return 0, [], ADVANCE_FAULT, []
                # Largest n with every tick start t + k*dt (k < n)
                # strictly before the change.
                clamp = int((fault_change - t - 1e-9) / dt) + 1
                if clamp < max_ticks:
                    max_ticks = clamp
                    clamp_reason = ADVANCE_FAULT
            dead_air = self.faults.dead_air_at(t)
        # No transfer starts inside a window and it ends on the first
        # completion, so the busy set is fixed for the call (a handshake
        # that completes without a transfer leaves a connection whose
        # steps stay no-ops).
        busy, pending, demands = scan_busy(self.connections)
        if len(busy) == 1 and busy[0]._transfer is not None:
            executed, activity, capacity, completed = self._advance_one_flow(
                busy[0], max_ticks, dt, dead_air
            )
        else:
            executed, activity, capacity, completed = self._advance_flows(
                busy, pending, demands, max_ticks, dt, dead_air
            )
        if completed:
            clamp_reason = ADVANCE_COMPLETION
        # The serial loop asserts the schedule's capacity every tick;
        # leave the link as the last executed tick left it.  Under dead
        # air the serial tick restores the schedule capacity afterwards,
        # so mirror that by asserting the un-faulted value.
        self.link.set_capacity(capacity)
        return executed, activity, clamp_reason, completed

    def _deliver(
        self, busy: list[TcpConnection], allocations, dt: float,
        executed: int, activity: list[bool],
    ) -> list[Transfer]:
        """Deliver window tick ``executed`` on the connections with the
        serial tick's step, and note whether it carried bytes."""
        link = self.link
        before = link.total_bytes_delivered
        completed = link.deliver(busy, allocations, dt,
                                 self.clock.ahead(executed))
        activity.append(link.total_bytes_delivered > before)
        return completed

    def _advance_one_flow(
        self, connection: TcpConnection, max_ticks: int, dt: float,
        dead_air: bool,
    ) -> tuple[int, list[bool], float, list[Transfer]]:
        """The single-flow kernel: :meth:`_advance_flows` for one busy
        connection with a transfer, on local variables.

        The water-fill collapses to the min with tolerance that
        :func:`~repro.net.link.plan_tick` uses for one connection.  The
        transfer's ``delivered_bytes`` and ``first_byte_at``, the
        connection's ``total_bytes_received`` and ``cwnd_bytes`` and the
        link's ``total_bytes_delivered`` live in locals and are written
        back once, on every exit; the float operations and their order
        are the serial tick's.  A tick that starts in handshake or
        request latency runs ``advance_control`` and ``rate_cap_bps`` on
        the connection itself: nothing was delivered in the window
        before it, so the object and the locals still agree.  The tick
        that completes the transfer is delivered after the write-back,
        by the serial tick's step, and ends the window.
        """
        link = self.link
        schedule = self.schedule
        clock = self.clock
        transfer = connection.transfer
        total = transfer.total_bytes
        done_at = total - 1e-6
        delivered_bytes = transfer.delivered_bytes
        first_byte_at = transfer.first_byte_at
        received = connection.total_bytes_received
        cwnd = connection.cwnd_bytes
        max_cwnd = connection.max_cwnd_bytes
        rtt = connection.rtt_s
        link_total = link.total_bytes_delivered
        pending = not connection.in_steady_transfer
        step_at = 0 if schedule is not None else max_ticks
        base_capacity = link.capacity_bps
        capacity = 0.0 if dead_air else base_capacity
        executed = 0
        activity: list[bool] = []
        append = activity.append
        completing = False
        while executed < max_ticks:
            if executed == step_at:
                base_capacity, step_at = _read_schedule(
                    schedule, clock.ahead(executed), executed, dt, max_ticks
                )
                capacity = 0.0 if dead_air else base_capacity
            if pending:
                connection.advance_control(dt)
                demand = connection.rate_cap_bps()
            else:
                demand = cwnd * 8.0 / rtt
            if demand <= 0 or capacity <= 1e-12:
                rate_bps = 0.0
            elif demand <= capacity + 1e-12:
                rate_bps = demand
            else:
                rate_bps = capacity
            num_bytes = rate_bps * dt / 8.0
            if num_bytes <= 0:
                append(False)
            else:
                # ``min(a, b)`` is ``b if b < a else a``; spelled out,
                # it skips a builtin call per tick.
                remaining = total - delivered_bytes
                delivered = remaining if remaining < num_bytes else num_bytes
                if delivered_bytes + delivered >= done_at:
                    completing = True
                    break
                if first_byte_at is None:
                    first_byte_at = clock.ahead(executed)
                delivered_bytes += delivered
                before = received
                received = before + delivered
                grown = cwnd + delivered
                cwnd = max_cwnd if max_cwnd < grown else grown
                before_link = link_total
                link_total += received - before
                append(link_total > before_link)
            executed += 1
            if pending:
                pending = not connection.in_steady_transfer
        transfer.delivered_bytes = delivered_bytes
        transfer.first_byte_at = first_byte_at
        connection.total_bytes_received = received
        connection.cwnd_bytes = cwnd
        link.total_bytes_delivered = link_total
        if not completing:
            return executed, activity, base_capacity, []
        completed = self._deliver([connection], (rate_bps,), dt, executed,
                                  activity)
        return executed + 1, activity, base_capacity, completed

    def _advance_flows(
        self, busy: list[TcpConnection], pending: list[int],
        demands: list[float], max_ticks: int, dt: float, dead_air: bool,
    ) -> tuple[int, list[bool], float, list[Transfer]]:
        """The multi-flow kernel: :meth:`advance_many` over any other
        busy set (fleet cells, parallel-connection services), on
        per-flow locals.

        ``busy``, ``pending`` and ``demands`` are :func:`scan_busy`'s
        answer for the window's first tick.  Every tick is planned by
        :func:`plan_tick`, the serial tick's planner.  The first tick is
        a serial tick, delivered on the connections by the serial tick's
        step; a window that runs on moves each flow's
        ``delivered_bytes``, ``total_bytes_received`` and ``cwnd_bytes``
        and the link's ``total_bytes_delivered`` into locals and writes
        them back once, on every exit; steady demands come from the
        local windows.  Per flow, in busy order, each tick runs the
        serial tick's float operations in its order.  A tick on which a
        transfer completes is delivered after the write-back, by the
        serial tick's step, and ends the window.

        Returns the ticks executed, their radio activity, the capacity
        of the last executed tick and the transfers it completed.
        """
        link = self.link
        schedule = self.schedule
        clock = self.clock
        step_at = 0 if schedule is not None else max_ticks
        base_capacity = link.capacity_bps
        capacity = 0.0 if dead_air else base_capacity
        executed = 0
        activity: list[bool] = []
        completing = False
        while executed < max_ticks:
            if executed == step_at:
                base_capacity, step_at = _read_schedule(
                    schedule, clock.ahead(executed), executed, dt, max_ticks
                )
                capacity = 0.0 if dead_air else base_capacity
            if executed:
                demands = [
                    cwnd * 8.0 / rtt for cwnd, rtt in zip(cwnds, rtts)
                ]
            allocations = plan_tick(busy, pending, demands, capacity, dt)
            if not executed:
                # The first tick is a serial tick, on the connections.
                completed = self._deliver(busy, allocations, dt, 0, activity)
                if completed or max_ticks == 1:
                    return 1, activity, base_capacity, completed
                # The window runs on: per-flow state moves into locals.
                transfers = [c._transfer for c in busy]
                totals = [
                    t.total_bytes if t is not None else 0 for t in transfers
                ]
                done_at = [total - 1e-6 for total in totals]
                delivered = [
                    t.delivered_bytes if t is not None else 0.0
                    for t in transfers
                ]
                received = [c.total_bytes_received for c in busy]
                cwnds = [c.cwnd_bytes for c in busy]
                caps = [c.max_cwnd_bytes for c in busy]
                rtts = [c.rtt_s for c in busy]
                link_total = link.total_bytes_delivered
            else:
                moves = []
                for i, rate_bps in enumerate(allocations):
                    num_bytes = rate_bps * dt / 8.0
                    if num_bytes <= 0:
                        continue
                    got = delivered[i]
                    remaining = totals[i] - got
                    moved = remaining if remaining < num_bytes else num_bytes
                    if got + moved >= done_at[i]:
                        completing = True
                        break
                    moves.append((i, moved))
                if completing:
                    break
                before_link = link_total
                for i, moved in moves:
                    # Set at most once per transfer, so written through.
                    transfer = transfers[i]
                    if transfer.first_byte_at is None:
                        transfer.first_byte_at = clock.ahead(executed)
                    delivered[i] += moved
                    before = received[i]
                    after = before + moved
                    received[i] = after
                    grown = cwnds[i] + moved
                    cap = caps[i]
                    cwnds[i] = cap if cap < grown else grown
                    link_total += after - before
                activity.append(link_total > before_link)
            executed += 1
            if pending:
                pending = [
                    i for i in pending if not busy[i].in_steady_transfer
                ]
        if executed:
            for connection, transfer, got, after, cwnd in zip(
                busy, transfers, delivered, received, cwnds
            ):
                if transfer is not None:
                    transfer.delivered_bytes = got
                connection.total_bytes_received = after
                connection.cwnd_bytes = cwnd
            link.total_bytes_delivered = link_total
        if not completing:
            return executed, activity, base_capacity, []
        completed = self._deliver(busy, allocations, dt, executed, activity)
        return executed + 1, activity, base_capacity, completed


def _read_schedule(
    schedule: BandwidthSchedule, t: float, executed: int, dt: float,
    max_ticks: int,
) -> tuple[float, int]:
    """The capacity of tick ``executed``, which starts at ``t``, and the
    tick whose start reaches the schedule's next change point: what a
    fresh :meth:`Network.advance_many` call at ``t`` reads."""
    capacity = schedule.bandwidth_at(t)
    change_at = schedule.next_change_at(t)
    if change_at == math.inf:
        return capacity, max_ticks
    return capacity, executed + int((change_at - t - 1e-9) / dt) + 1
