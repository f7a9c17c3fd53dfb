"""Bottleneck link with max-min fair sharing.

All of a session's TCP connections share one shaped downlink (the
cellular bottleneck).  Capacity each tick is divided by *water-filling*:
connections whose congestion window caps them below the equal share
release the remainder to the others, which is how real flows sharing a
shaped queue behave to first order.
"""

from __future__ import annotations

from repro.net.tcp import TcpConnection, TcpConnectionState
from repro.util import check_non_negative, check_positive


def water_fill(capacity: float, demands: list[float]) -> list[float]:
    """Max-min fair allocation of ``capacity`` to ``demands``.

    Returns one allocation per demand, never exceeding the demand, with
    the total never exceeding capacity.  Float-for-float equal to the
    naive fixed-point formulation (same shares, same subtraction order),
    just without rebuilding the unsatisfied set from scratch each round
    — see ``tests/test_net.py`` for the equivalence property test.
    """
    check_non_negative("capacity", capacity)
    for demand in demands:
        check_non_negative("demand", demand)
    return _fill(capacity, demands)


def _fill(capacity: float, demands: list[float]) -> list[float]:
    """:func:`water_fill`'s arithmetic, without its argument checks."""
    allocations = [0.0] * len(demands)
    unsatisfied = [i for i, demand in enumerate(demands) if demand > 0]
    remaining = capacity
    if len(unsatisfied) == 1 and remaining > 1e-12:
        # One active flow: it takes its demand, or the whole capacity.
        i = unsatisfied[0]
        allocations[i] = demands[i] if demands[i] <= remaining + 1e-12 else remaining
        return allocations
    while unsatisfied and remaining > 1e-12:
        share = remaining / len(unsatisfied)
        still_unsatisfied = []
        any_satisfied = False
        for i in unsatisfied:
            if demands[i] - allocations[i] <= share + 1e-12:
                remaining -= demands[i] - allocations[i]
                allocations[i] = demands[i]
                any_satisfied = True
            else:
                still_unsatisfied.append(i)
        if any_satisfied:
            unsatisfied = still_unsatisfied
        else:
            for i in unsatisfied:
                allocations[i] += share
            remaining = 0.0
    return allocations


def allocate(capacity: float, demands: list[float]) -> list[float]:
    """:func:`water_fill` for the link kernel, its one caller.

    Only the capacity is checked: the kernel computes every demand
    itself, from non-negative windows and rates (``cwnd * 8 / rtt`` and
    ``rate_cap_bps``).
    """
    check_non_negative("capacity", capacity)
    return _fill(capacity, demands)


_CONNECTING = TcpConnectionState.CONNECTING
_ESTABLISHED = TcpConnectionState.ESTABLISHED


def scan_busy(
    connections: list[TcpConnection],
) -> tuple[list[TcpConnection], list[int], list[float]]:
    """One pass over ``connections``: the busy ones, in order, the
    positions (in that list) of those not yet in steady transfer, and
    one demand per busy connection.

    A connection is busy with a transfer or a handshake under way.  A
    steady one's demand is ``cwnd * 8.0 / rtt``, what ``rate_cap_bps``
    computes in steady transfer; a pending one's is a placeholder that
    :func:`plan_tick` fills after its countdowns run.  Reads the
    connections' fields directly: this runs once per tick or window
    over every connection of a cell.
    """
    busy: list[TcpConnection] = []
    pending: list[int] = []
    demands: list[float] = []
    for connection in connections:
        if connection._transfer is None:
            if connection.state is not _CONNECTING:
                continue
            pending.append(len(busy))
            demands.append(0.0)
        elif (
            connection.state is _ESTABLISHED
            and not connection._request_latency_remaining_s > 0
        ):
            demands.append(connection.cwnd_bytes * 8.0 / connection.rtt_s)
        else:
            pending.append(len(busy))
            demands.append(0.0)
        busy.append(connection)
    return busy, pending, demands


def plan_tick(
    busy: list[TcpConnection], pending: list[int], demands: list[float],
    capacity: float, dt: float,
) -> list[float] | tuple[float]:
    """Plan one tick of the shared link: run the pending connections'
    countdowns, fill in their demands and divide ``capacity``.

    ``demands`` holds the steady connections' demands (from the
    connections, or from a batched window's locals) and is completed in
    place.  Returns one allocation per busy connection.  A single busy
    connection skips the water-fill call: the allocation collapses to
    the same min-with-tolerance :func:`water_fill` computes.
    """
    for i in pending:
        connection = busy[i]
        connection.advance_control(dt)
        demands[i] = connection.rate_cap_bps()
    if len(busy) != 1:
        # Through the module global, so a wrapper installed on
        # ``allocate`` sees every call.
        return allocate(capacity, demands)
    demand = demands[0]
    if demand <= 0 or capacity <= 1e-12:
        return (0.0,)
    if demand <= capacity + 1e-12:
        return (demand,)
    return (capacity,)


class BottleneckLink:
    """The shared shaped downlink."""

    def __init__(self) -> None:
        self.capacity_bps = 0.0
        self.total_bytes_delivered = 0.0

    def set_capacity(self, capacity_bps: float) -> None:
        check_non_negative("capacity_bps", capacity_bps)
        self.capacity_bps = capacity_bps

    def advance(
        self, connections: list[TcpConnection], dt: float, now: float
    ) -> list:
        """Move one tick of bytes; returns transfers that completed.

        Only busy connections take part: an idle one's control step is
        a no-op and its demand is 0, which the water-fill never serves,
        so leaving it out changes no other flow's allocation.  The tick
        is planned by :func:`scan_busy` and :func:`plan_tick` and moved
        by :meth:`deliver`, the steps a batched window shares; this
        method calls no batched kernel, so the tick oracle stays
        independent of the windows it checks.
        """
        check_positive("dt", dt)
        busy, pending, demands = scan_busy(connections)
        if not busy:
            return []
        allocations = plan_tick(busy, pending, demands, self.capacity_bps, dt)
        return self.deliver(busy, allocations, dt, now)

    def deliver(
        self, busy: list[TcpConnection], allocations, dt: float, now: float
    ) -> list:
        """Move one planned tick of bytes, starting at ``now``; returns
        the transfers that completed, in busy order, unfired.

        The one delivery step: the serial tick, a multi-flow window's
        first tick and every window's completing tick run it.  Per
        connection, in busy order, it runs the float operations of
        ``TcpConnection.deliver``: ``rate * dt / 8``, the ``min`` with
        the remaining bytes, the completion test and the capped window
        growth.
        """
        completed = []
        link_total = self.total_bytes_delivered
        for connection, rate_bps in zip(busy, allocations):
            num_bytes = rate_bps * dt / 8.0
            if num_bytes <= 0:
                continue
            transfer = connection._transfer
            if transfer.first_byte_at is None:
                transfer.first_byte_at = now
            total = transfer.total_bytes
            got = transfer.delivered_bytes
            # ``min(a, b)`` is ``b if b < a else a``; spelled out, it
            # skips a builtin call per flow.
            remaining = total - got
            delivered = remaining if remaining < num_bytes else num_bytes
            got += delivered
            transfer.delivered_bytes = got
            before = connection.total_bytes_received
            after = before + delivered
            connection.total_bytes_received = after
            grown = connection.cwnd_bytes + delivered
            cap = connection.max_cwnd_bytes
            connection.cwnd_bytes = cap if cap < grown else grown
            link_total += after - before
            if got >= total - 1e-6:
                transfer.completed_at = now
                connection._transfer = None
                connection._idle_since = now
                completed.append(transfer)
        self.total_bytes_delivered = link_total
        return completed
