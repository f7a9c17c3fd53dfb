"""Fluid TCP connection model.

Each connection is modelled at the level that matters to HAS QoE:

* connection establishment costs one RTT (the handshake), which is what
  makes non-persistent connections slow (section 3.2);
* a transfer's first payload byte arrives one further RTT after the
  request is written (request propagation + server response);
* throughput within a tick is ``min(fair share, cwnd / RTT)``, with the
  congestion window growing by the bytes acknowledged (slow start) up
  to a cap, and collapsing back to the initial window after an idle
  period (slow-start restart), so every on-off download burst pays a
  ramp-up.

Loss/retransmission dynamics are intentionally absent: the bottleneck
is shaped, so steady-state throughput equals the shaped share, exactly
as with ``tc`` in the paper's testbed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.util import check_non_negative, check_positive

MSS_BYTES = 1460
INITIAL_CWND_BYTES = 10 * MSS_BYTES  # RFC 6928 initial window
DEFAULT_MAX_CWND_BYTES = 4 * 1024 * 1024
DEFAULT_IDLE_RESTART_S = 1.0


@dataclass(eq=False)
class Transfer:
    """One HTTP response body moving over a connection.

    Compared by identity: two transfers of equal fields are still two
    bodies on the wire.
    """

    total_bytes: int
    on_complete: Optional[Callable[["Transfer"], None]] = None
    delivered_bytes: float = 0.0
    started_at: float | None = None
    first_byte_at: float | None = None
    completed_at: float | None = None
    # Torn down before all bytes arrived (client timeout or reset).
    aborted: bool = False

    def __post_init__(self) -> None:
        check_positive("total_bytes", self.total_bytes)

    @property
    def remaining_bytes(self) -> float:
        return self.total_bytes - self.delivered_bytes

    @property
    def complete(self) -> bool:
        return self.delivered_bytes >= self.total_bytes - 1e-6


class TcpConnectionState(enum.Enum):
    CLOSED = "closed"
    CONNECTING = "connecting"
    ESTABLISHED = "established"


class TcpConnection:
    """One TCP connection carrying at most one transfer at a time."""

    def __init__(
        self,
        conn_id: str,
        rtt_s: float = 0.05,
        *,
        max_cwnd_bytes: int = DEFAULT_MAX_CWND_BYTES,
        idle_restart_s: float = DEFAULT_IDLE_RESTART_S,
    ):
        check_positive("rtt_s", rtt_s)
        self.conn_id = conn_id
        self.rtt_s = rtt_s
        self.max_cwnd_bytes = max_cwnd_bytes
        self.idle_restart_s = idle_restart_s
        self.state = TcpConnectionState.CLOSED
        self.cwnd_bytes = float(INITIAL_CWND_BYTES)
        self.total_bytes_received = 0.0
        self.connects = 0
        self._handshake_remaining_s = 0.0
        self._request_latency_remaining_s = 0.0
        self._transfer: Transfer | None = None
        self._idle_since: float | None = None

    # -- lifecycle ---------------------------------------------------------

    def connect(self, now: float) -> None:
        if self.state is not TcpConnectionState.CLOSED:
            raise RuntimeError(f"{self.conn_id}: connect() while {self.state}")
        self.state = TcpConnectionState.CONNECTING
        self._handshake_remaining_s = self.rtt_s
        self.cwnd_bytes = float(INITIAL_CWND_BYTES)
        self.connects += 1
        self._idle_since = None

    def close(self) -> None:
        if self._transfer is not None:
            raise RuntimeError(f"{self.conn_id}: close() with active transfer")
        self.state = TcpConnectionState.CLOSED
        self._idle_since = None

    def abort(self, now: float) -> Transfer | None:
        """Tear the connection down mid-transfer (timeout or reset).

        The in-flight transfer (if any) is marked aborted and returned;
        the connection closes, so the next request pays a handshake.
        """
        transfer = self._transfer
        if transfer is not None:
            transfer.aborted = True
            transfer.completed_at = now
            self._transfer = None
        self.state = TcpConnectionState.CLOSED
        self._handshake_remaining_s = 0.0
        self._request_latency_remaining_s = 0.0
        self._idle_since = None
        return transfer

    @property
    def transfer(self) -> Transfer | None:
        return self._transfer

    @property
    def busy(self) -> bool:
        return self._transfer is not None or (
            self.state is TcpConnectionState.CONNECTING
        )

    @property
    def available(self) -> bool:
        """Established (or establishable) and idle."""
        return self._transfer is None

    @property
    def in_steady_transfer(self) -> bool:
        """Transferring, past handshake and request latency.

        In this phase ``advance_control`` is a no-op and the per-tick
        dynamics reduce to pure delivery arithmetic, which is what makes
        the connection eligible for batched ticks.
        """
        return (
            self._transfer is not None
            and self.state is TcpConnectionState.ESTABLISHED
            and not self._request_latency_remaining_s > 0
        )

    def start_transfer(
        self, transfer: Transfer, now: float, extra_latency_s: float = 0.0
    ) -> None:
        """Queue ``transfer`` on this connection.

        If the connection is closed it is (re)opened first, paying the
        handshake.  If it sat idle longer than ``idle_restart_s``, the
        congestion window restarts from the initial window.
        ``extra_latency_s`` models added request latency (e.g. a fault
        plane's latency spike) on top of the base RTT.
        """
        check_non_negative("extra_latency_s", extra_latency_s)
        if self._transfer is not None:
            raise RuntimeError(f"{self.conn_id}: already transferring")
        if self.state is TcpConnectionState.CLOSED:
            self.connect(now)
        elif (
            self._idle_since is not None
            and now - self._idle_since > self.idle_restart_s
        ):
            self.cwnd_bytes = float(INITIAL_CWND_BYTES)
        self._idle_since = None
        self._transfer = transfer
        self._request_latency_remaining_s = self.rtt_s + extra_latency_s
        transfer.started_at = now

    # -- per-tick dynamics ---------------------------------------------------

    def rate_cap_bps(self) -> float:
        """Maximum rate this connection can currently sustain, in bps."""
        if self.state is TcpConnectionState.CONNECTING:
            return 0.0
        if self._transfer is None or self._request_latency_remaining_s > 0:
            return 0.0
        return self.cwnd_bytes * 8.0 / self.rtt_s

    def advance_control(self, dt: float) -> None:
        """Progress handshake and request latency countdowns."""
        check_positive("dt", dt)
        if self.state is TcpConnectionState.CONNECTING:
            self._handshake_remaining_s -= dt
            if self._handshake_remaining_s <= 1e-9:
                self.state = TcpConnectionState.ESTABLISHED
                self._handshake_remaining_s = 0.0
        elif self._transfer is not None and self._request_latency_remaining_s > 0:
            self._request_latency_remaining_s -= dt
            if self._request_latency_remaining_s <= 1e-9:
                self._request_latency_remaining_s = 0.0

    def slow_start_horizon_ticks(
        self, capacity_bps: float, dt: float, max_ticks: int
    ) -> int:
        """Ticks this transfer provably stays incomplete, in closed form.

        Assumes the connection is in a steady transfer and receives at
        most ``min(cwnd / rtt, capacity)`` each tick (any max-min fair
        share is bounded by that), so the estimate is conservative under
        link sharing.  Slow start makes the window roughly geometric —
        ``cwnd`` grows by the delivered bytes each tick — so the ramp to
        either the capacity limit or ``max_cwnd_bytes`` takes only a
        handful of iterations; once the per-tick quantum is constant the
        remaining tick count is a single division.  The result is
        advisory and deliberately biased one tick HIGH: the batched
        replay checks completion exactly on every tick and ends its
        window there, so overshooting costs nothing while
        undershooting would strand batchable ticks on the serial path.
        """
        transfer = self._transfer
        if transfer is None or max_ticks <= 0:
            return 0
        if capacity_bps <= 1e-12:
            return max_ticks  # nothing moves; the transfer cannot end
        remaining = transfer.remaining_bytes
        cwnd = self.cwnd_bytes
        ticks = 0
        while ticks < max_ticks:
            demand = cwnd * 8.0 / self.rtt_s
            if demand > capacity_bps + 1e-12:
                # Capacity-limited, and the demand only grows: the
                # quantum is constant from here on.  Finish with one
                # division.
                chunk = capacity_bps * dt / 8.0
                more = int((remaining - 1e-6) / chunk) + 1
                return min(max_ticks, ticks + more)
            chunk = demand * dt / 8.0
            cwnd_next = min(cwnd + chunk, float(self.max_cwnd_bytes))
            if cwnd_next == cwnd:
                # cwnd capped below capacity: constant quantum too.
                more = int((remaining - 1e-6) / chunk) + 1
                return min(max_ticks, ticks + more)
            if remaining - chunk <= 1e-6:
                # The next tick may complete the transfer; offer it and
                # let the exact replay check decide.
                return min(max_ticks, ticks + 1)
            remaining -= chunk
            cwnd = cwnd_next
            ticks += 1
        return ticks

    def deliver(self, num_bytes: float, now: float) -> Transfer | None:
        """Deliver payload bytes; returns the transfer if it completed."""
        check_non_negative("num_bytes", num_bytes)
        transfer = self._transfer
        if transfer is None:
            if num_bytes > 0:
                raise RuntimeError(f"{self.conn_id}: bytes without transfer")
            return None
        if num_bytes > 0 and transfer.first_byte_at is None:
            transfer.first_byte_at = now
        delivered = min(num_bytes, transfer.remaining_bytes)
        transfer.delivered_bytes += delivered
        self.total_bytes_received += delivered
        # Slow start: grow the window by the bytes acknowledged.
        self.cwnd_bytes = min(self.cwnd_bytes + delivered, self.max_cwnd_bytes)
        if transfer.complete:
            transfer.completed_at = now
            self._transfer = None
            self._idle_since = now
            return transfer
        return None
