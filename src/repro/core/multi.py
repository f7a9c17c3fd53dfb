"""Multiple players sharing one cellular bottleneck.

The paper's related work (FESTIVE, reference [31]) is about fairness
between concurrent HAS clients on a shared link — a question this
testbed can answer directly: :class:`MultiSession` runs N independent
players (possibly different services) against one shaped link, with a
single proxy capturing all flows, and attributes downloads back to
each player by URL namespace.

Two engines share the byte-identity contract the single-session runner
established: the lock-step tick loop (:class:`MultiSession`, the
oracle) and :class:`EventDrivenMultiSession`, which steps the shared
clock event to event over one :class:`~repro.core.events.EventQueue`
holding every client's producer deadlines — per-player wakes, churn
instants and the fault plane's static change points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.faults import FaultInjectingHandler, FaultSpec
from repro.analysis.proxy import FlowRecord, Proxy
from repro.analysis.qoe import QoeReport, compute_qoe
from repro.analysis.traffic import TrafficAnalyzer
from repro.analysis.ui import UiMonitor
from repro.core.events import (
    ADVANCE_COMPLETION,
    Event,
    EventLoopCore,
    EventQueue,
    EventType,
)
from repro.net.clock import Clock
from repro.net.network import Network
from repro.net.schedule import BandwidthSchedule
from repro.player.events import SessionEnded
from repro.player.player import Player, PlayerState
from repro.server.origin import OriginServer
from repro.services.profiles import BuiltService

MULTI_ENGINES = ("tick", "event")


@dataclass(frozen=True)
class ClientRecord:
    """The picklable summary of one client's shared-link session.

    The :class:`~repro.core.parallel.RunRecord` idea applied per
    client: everything comparable and process-portable — QoE, terminal
    state, churn instants — with the live object graph left behind on
    :class:`ClientResult`.  This is what crosses worker boundaries and
    enters the outcome cache as part of a
    :class:`~repro.core.fleet.FleetOutcome`.

    ``final_state`` is the player state value, or ``"departed"`` when
    churn retired the client mid-session, or ``"unarrived"`` when its
    arrival fell past the end of the run (offered but never carried
    load).
    """

    client_id: str
    service_name: str
    qoe: QoeReport
    final_state: str
    end_reason: Optional[str] = None
    device_class: str = "default"
    arrival_s: float = 0.0
    departure_s: Optional[float] = None


@dataclass
class ClientResult:
    """One player's view of a shared-link session.

    Splits along the RunRecord/RunOutcome seam: ``record`` is the
    picklable summary, the remaining fields are the live object handles
    (player graph, flow analyzer, UI monitor) that only exist on
    in-process runs.  The old flat attributes (``client_id``,
    ``service_name``, ``qoe``) remain readable as delegating
    properties.
    """

    record: ClientRecord
    player: Player
    analyzer: TrafficAnalyzer
    ui: UiMonitor

    @property
    def client_id(self) -> str:
        return self.record.client_id

    @property
    def service_name(self) -> str:
        return self.record.service_name

    @property
    def qoe(self) -> QoeReport:
        return self.record.qoe


def flows_by_asset(
    flows: Sequence[FlowRecord], asset_ids: Sequence[str]
) -> list[list[FlowRecord]]:
    """Each asset's flows: those whose URL contains ``/{asset_id}/``.

    One pass over the capture instead of one substring filter per
    client.  For an id without a ``/``, ``f"/{asset_id}/" in url``
    holds exactly when the id is one of the URL's inner pieces (every
    ``url.split("/")`` piece but the first and the last), so the pieces
    are looked up in a dict; an id containing ``/`` keeps the substring
    test.  Flows keep capture order, a flow naming several ids lands in
    each of their lists, and a repeated id shares one list.
    """
    buckets: dict[str, list[FlowRecord]] = {
        asset_id: [] for asset_id in asset_ids
    }
    slashed = [asset_id for asset_id in buckets if "/" in asset_id]
    for flow in flows:
        url = flow.url
        for asset_id in buckets.keys() & url.split("/")[1:-1]:
            buckets[asset_id].append(flow)
        for asset_id in slashed:
            if f"/{asset_id}/" in url:
                buckets[asset_id].append(flow)
    return [buckets[asset_id] for asset_id in asset_ids]


class MultiSession:
    """N players, one link, one clock, one flow capture."""

    engine = "tick"

    def __init__(
        self,
        builts: Sequence[BuiltService],
        server: OriginServer,
        schedule: BandwidthSchedule,
        *,
        dt: float = 0.1,
        rtt_s: float = 0.05,
        fast_forward: bool = False,
        faults: Optional[FaultSpec] = None,
        arrivals: Optional[Sequence[float]] = None,
        departures: Optional[Sequence[Optional[float]]] = None,
    ):
        if not builts:
            raise ValueError("need at least one client")
        self.builts = list(builts)
        self.fast_forward = fast_forward
        self.ticks_executed = 0
        self.fast_forwarded_ticks = 0
        self.fast_forward_jumps = 0
        self.clock = Clock(dt=dt)
        self.faults = faults
        # Same layering as Session: origin faults sit between proxy and
        # origin (the proxy records what actually crossed the wire),
        # the transport plane rides inside the shared network.
        self.fault_injector: Optional[FaultInjectingHandler] = None
        origin_handler = server
        if faults is not None and faults.has_origin_faults:
            self.fault_injector = FaultInjectingHandler(server, self.clock, faults)
            origin_handler = self.fault_injector
        self.proxy = Proxy(origin_handler)
        self.network = Network(
            self.clock,
            self.proxy,
            schedule,
            rtt_s=rtt_s,
            faults=faults.transport_plane() if faults is not None else None,
        )
        self.network.observers.append(self.proxy)
        self.players = [
            Player(self.clock, self.network, built.player_config,
                   built.manifest_url, cipher=built.cipher)
            for built in self.builts
        ]
        # -- churn roster (the fleet layer's arrivals/departures) ------
        count = len(self.players)
        self.arrivals = (
            list(arrivals) if arrivals is not None else [0.0] * count
        )
        self.departures = (
            list(departures) if departures is not None else [None] * count
        )
        if len(self.arrivals) != count or len(self.departures) != count:
            raise ValueError(
                "arrivals/departures must align with the client list"
            )
        for index in range(count):
            if self.arrivals[index] < 0:
                raise ValueError(f"client {index}: arrival must be >= 0")
            departure = self.departures[index]
            if departure is not None and departure <= self.arrivals[index]:
                raise ValueError(
                    f"client {index}: departure must follow arrival"
                )
        self._churn = any(a > 1e-9 for a in self.arrivals) or any(
            d is not None for d in self.departures
        )
        self._arrived = [a <= 1e-9 for a in self.arrivals]
        self._retired = [False] * count
        # Indexes of the clients on the link, in client order.
        self._active = [
            index for index in range(count) if self._arrived[index]
        ]
        self._duration = 0.0

    def run(self, duration_s: float) -> list[ClientResult]:
        dt = self.clock.dt
        self._duration = duration_s
        players = self.players
        while self.clock.now < duration_s - 1e-9:
            if self._churn:
                self._process_churn(self.clock.now)
            if self.fast_forward and self._try_fast_forward(duration_s):
                continue
            self.network.advance(dt)
            for index in self._active:
                players[index].advance(dt)
            self.clock.tick()
            self.ticks_executed += 1
            if self._all_done():
                break
        return self._collect_results()

    # -- churn -------------------------------------------------------------

    def _process_churn(self, now: float) -> None:
        """Activate due arrivals and retire due departures at ``now``.

        Runs at the top of every (dispatched) tick in both engines, so
        a client's first advance and its retirement land on exactly the
        same tick either way — the byte-identity contract extended to
        churn.
        """
        changed = False
        for index in range(len(self.players)):
            if not self._arrived[index]:
                if self.arrivals[index] <= now + 1e-9:
                    self._arrived[index] = True
                    changed = True
                continue
            if self._retired[index]:
                continue
            departure = self.departures[index]
            if departure is not None and now >= departure - 1e-9:
                self._retire(index, now)
                changed = True
        if changed:
            self._active = [
                index
                for index in range(len(self.players))
                if self._arrived[index] and not self._retired[index]
            ]

    def _retire(self, index: int, now: float) -> None:
        """Tear down a departing client's flows without completions.

        ``TcpConnection.abort`` marks any in-flight transfer aborted
        *without* firing its completion callback (no re-entrant retry
        scheduling on a player that will never advance again), then the
        connections leave the shared link so the remaining clients stop
        sharing capacity with a ghost.
        """
        player = self.players[index]
        for connection in player.scheduler.connections():
            connection.abort(now)
            if connection in self.network.connections:
                self.network.drop_connection(connection)
        self._retired[index] = True

    def _all_done(self) -> bool:
        if not self._churn:
            return all(player.ended for player in self.players)
        for index, player in enumerate(self.players):
            if self._retired[index]:
                continue
            if not self._arrived[index]:
                if self.arrivals[index] < self._duration - 1e-9:
                    return False  # still due to arrive
                continue  # never arrives within this run
            if not player.ended:
                return False
        return True

    def _churn_horizon_ticks(self, ticks: int, dt: float) -> int:
        """Clamp a no-op window so churn instants run on serial ticks.

        Same window arithmetic as the event engine's batch-to-event
        clamp, so both engines activate and retire on identical ticks.
        """
        if not self._churn:
            return ticks
        now = self.clock.now
        for index in range(len(self.players)):
            if self._retired[index]:
                continue
            if not self._arrived[index]:
                instant = self.arrivals[index]
            else:
                instant = self.departures[index]
                if instant is None:
                    continue
            if instant <= now + 1e-9:
                continue  # due now; the tick top already processed it
            clamp = int((instant - now - 1e-9) / dt) + 1
            if clamp < ticks:
                ticks = clamp
        return ticks

    # -- fast forward ------------------------------------------------------

    def _try_fast_forward(self, duration_s: float) -> bool:
        """Jump the shared clock over a stretch idle for *every* player."""
        if self._all_done():
            return False  # the serial loop is about to break
        active = [self.players[index] for index in self._active]
        for player in active:
            if player.state not in (PlayerState.PLAYING, PlayerState.ENDED):
                return False
            if player.scheduler.busy:
                return False
        if any(conn.transfer is not None for conn in self.network.connections):
            return False
        dt = self.clock.dt
        max_ticks = int((duration_s - 1e-9 - self.clock.now) / dt)
        if max_ticks < 2:
            return False
        if active:
            ticks = min(
                player.idle_noop_ticks(dt, max_ticks) for player in active
            )
        else:
            ticks = max_ticks  # everyone still waiting to arrive
        # Fault change points (including no-op resets) must execute on
        # the serial path so the fault cursor advances identically; the
        # same goes for churn instants.
        ticks = self.network.fault_horizon_ticks(ticks, dt)
        ticks = self._churn_horizon_ticks(ticks, dt)
        if ticks < 2:
            return False
        for player in active:
            player.apply_noop_ticks(ticks, dt)
        self.clock.advance(ticks)
        self.fast_forwarded_ticks += ticks
        self.fast_forward_jumps += 1
        return True

    # -- results -----------------------------------------------------------

    def _final_state(self, index: int) -> str:
        if self._churn and not self._arrived[index]:
            return "unarrived"
        if self._retired[index]:
            return "departed"
        return self.players[index].state.value

    def _collect_results(self) -> list[ClientResult]:
        results = []
        client_flows = flows_by_asset(
            self.proxy.flows, [built.asset.asset_id for built in self.builts]
        )
        for index, (built, player, flows) in enumerate(
            zip(self.builts, self.players, client_flows)
        ):
            analyzer = TrafficAnalyzer()
            analyzer.observe_flows(flows)
            ui = UiMonitor(player.ui_samples)
            end_reason = next(
                (
                    event.reason
                    for event in player.events.events
                    if isinstance(event, SessionEnded)
                ),
                None,
            )
            record = ClientRecord(
                client_id=built.asset.asset_id,
                service_name=built.spec.name,
                qoe=compute_qoe(
                    analyzer, ui,
                    total_bytes=sum(f.size_bytes or 0 for f in flows
                                    if f.complete),
                ),
                final_state=self._final_state(index),
                end_reason=end_reason,
                arrival_s=self.arrivals[index],
                departure_s=self.departures[index],
            )
            results.append(
                ClientResult(
                    record=record, player=player, analyzer=analyzer, ui=ui
                )
            )
        return results


class EventDrivenMultiSession(EventLoopCore, MultiSession):
    """A :class:`MultiSession` stepping event to event on one queue.

    Per-client producer ownership scales the single-session design to N
    players on a shared link: every player keeps one ``PLAYER_WAKE``
    (its margin-contract deadline, absolute) and the fault plane its
    static entries — all in one shared :class:`EventQueue`.  A
    dispatched tick runs ``network.advance`` for the cell, then a full
    ``player.advance`` only for the clients it *touches* (see
    :meth:`_dispatch_tick`); every other client sits inside the no-op
    window its own wake certified and replays the tick with
    ``apply_noop_ticks(1)``.  Producers are refreshed for the touched
    clients only, so per-dispatch bookkeeping scales with them, not
    with the cell.  Batched windows replay through the identical
    primitives (``Network.advance_many`` over the shared link,
    per-player ``apply_noop_ticks``), keeping ``ClientResult``s
    byte-identical to the tick loop.
    """

    engine = "event"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        count = len(self.players)
        self.queue = EventQueue()
        self.events_dispatched = 0
        self.max_queue_depth = 0
        self._completion_due = False
        self._limit = 0.0
        self._wake_handles: list[Event | None] = [None] * count
        self._wake_sigs: list[object] = [None] * count
        # Per client: its scheduler's wire completions at its last full tick.
        self._parts_seen = [0] * count

    def run(self, duration_s: float) -> list[ClientResult]:
        dt = self.clock.dt
        limit = duration_s - 1e-9
        self._limit = limit
        self._duration = duration_s
        self._register_fault_events()
        self._register_churn_events(duration_s)
        if self._churn:
            self._process_churn(self.clock.now)
        self._refresh_producers(self._active)
        clock = self.clock
        while clock.now < limit:
            if self._completion_due:
                # advance_many promised the next tick completes a
                # transfer: dispatch it without re-probing anything.
                self._completion_due = False
                if self._dispatch_tick(dt):
                    break
                continue
            now = clock.now
            next_t = self.queue.next_time()
            if next_t <= now + 1e-9:
                if self._dispatch_tick(dt):
                    break
                continue
            if self._batch_to(min(next_t, limit), limit, dt):
                break
        return self._collect_results()

    # -- serial event instants --------------------------------------------

    def _register_churn_events(self, duration_s: float) -> None:
        """Static queue entries for every churn instant inside the run.

        Like fault change points: batched windows clamp just before
        them, so arrivals activate and departures retire on a
        dispatched (serial) tick — the same tick the oracle's per-tick
        churn scan would pick.
        """
        if not self._churn:
            return
        for index in range(len(self.players)):
            arrival = self.arrivals[index]
            if arrival > 1e-9 and arrival < duration_s - 1e-9:
                self.queue.push(arrival, EventType.CLIENT_CHURN, index)
                self._note_depth()
            departure = self.departures[index]
            if departure is not None and departure < duration_s - 1e-9:
                self.queue.push(departure, EventType.CLIENT_CHURN, index)
                self._note_depth()

    def _retire(self, index: int, now: float) -> None:
        """Retire the client and cancel the wake it owns."""
        super()._retire(index, now)
        handle = self._wake_handles[index]
        if handle is not None:
            self.queue.cancel(handle)
        self._wake_handles[index] = None

    def _dispatch_tick(self, dt: float) -> bool:
        """One oracle tick at an event instant; True ends the session.

        After ``network.advance`` a client is *touched* — runs a full
        ``player.advance`` — when its wake was popped at this instant
        or it has none (it just arrived), when its scheduler's
        ``completed_parts`` moved since its last full tick (a
        completion, abort, reset or failure fired inside this tick's
        ``network.advance``), or when a fault change point popped.
        Any other client's wake lies strictly in the future, so this
        tick falls inside the no-op window its margin contract
        certified, where ``apply_noop_ticks(1)`` is bit-identical to
        ``advance``.  The replay is eager, in client order: completion
        callbacks inside ``network.advance`` read player state, so no
        client may lag behind the clock.
        """
        due = self.queue.pop_due(self.clock.now + 1e-9)
        if self._churn:
            self._process_churn(self.clock.now)
        self.network.advance(dt)
        everyone = any(event.type is EventType.FAULT_CHANGE for event in due)
        players = self.players
        wakes = self._wake_handles
        parts_seen = self._parts_seen
        touched = []
        for index in self._active:
            player = players[index]
            wake = wakes[index]
            if (
                everyone
                or wake is None
                or wake.cancelled
                or player.scheduler.completed_parts != parts_seen[index]
            ):
                player.advance(dt)
                touched.append(index)
            else:
                player.apply_noop_ticks(1, dt)
        self.clock.tick()
        self.ticks_executed += 1
        self.events_dispatched += 1
        if self._all_done():
            return True  # mirror the oracle's post-tick break
        self._refresh_producers(touched)
        return False

    def _refresh_producers(self, touched: Sequence[int]) -> None:
        """Re-arm the touched clients' wakes.

        Only a full tick can move a player's mode or margin premises,
        so bystanders keep their absolute wakes.  Among the touched, a
        cheap signature (state, wire completions, in-flight count,
        emitted events, pause flags) still skips the margin walk when
        nothing observable moved; a popped or missing wake always
        recomputes — serial stretches re-vet every tick, exactly like
        the single-session engine.
        """
        queue = self.queue
        players = self.players
        for index in touched:
            player = players[index]
            scheduler = player.scheduler
            self._parts_seen[index] = scheduler.completed_parts
            sig = (
                player.state,
                scheduler.completed_parts,
                scheduler.inflight(),
                len(player.events.events),
                player.pause_state(),
            )
            handle = self._wake_handles[index]
            if (
                handle is not None
                and not handle.cancelled
                and sig == self._wake_sigs[index]
            ):
                continue  # this producer's state did not change
            self._wake_sigs[index] = sig
            deadline = self._player_deadline(player)
            if handle is not None and not handle.cancelled:
                if abs(handle.time - deadline) <= 1e-9:
                    continue
                queue.cancel(handle)
            self._wake_handles[index] = queue.push(
                deadline, EventType.PLAYER_WAKE, index
            )
            self._note_depth()

    def _player_deadline(self, player: Player) -> float:
        """This player's absolute wake deadline under its current mode.

        Mode mirrors the single-session engine per player: a busy
        scheduler vets via ``transfer_noop_ticks`` (global batching
        guarantees no completion inside the window), otherwise the
        playing/stalled contracts apply.  A busy scheduler without live
        wire parts has no contract and wakes next tick.
        """
        clock = self.clock
        now = clock.now
        dt = clock.dt
        remaining = int((self._limit - now) / dt) + 1
        if remaining < 1:
            remaining = 1
        if player.scheduler.busy:
            if any(job.live_transfers() for job in player.scheduler.jobs()):
                ticks = player.transfer_noop_ticks(dt, remaining)
            else:
                ticks = 0
        elif player.state is PlayerState.PLAYING:
            ticks = player.idle_noop_ticks(dt, remaining)
        else:
            ticks = player.stalled_noop_ticks(dt, remaining)
        return now + ticks * dt

    # -- batched windows ---------------------------------------------------

    def _batch_to(self, target: float, limit: float, dt: float) -> bool:
        """Replay the certified no-op window ending at ``target``.

        Same window math as the single-session engine; every player
        replays its own no-op ticks against the shared clock.  Returns
        True when a dispatch taken on the serial fallback path ended
        the session.
        """
        clock = self.clock
        now = clock.now
        remaining = int((limit - now) / dt) + 1
        ticks = int((target - now - 1e-9) / dt) + 1
        if ticks > remaining:
            ticks = remaining
        if ticks < 1:
            return self._dispatch_tick(dt)
        players = [self.players[index] for index in self._active]
        if self.network.steady_for_batching():
            executed, activity, reason = self.network.advance_many(ticks, dt)
            if reason == ADVANCE_COMPLETION:
                self._completion_due = True
            if executed <= 0:
                # A completion or fault is due on this very tick.
                self._completion_due = False
                return self._dispatch_tick(dt)
            for player in players:
                player.apply_noop_ticks(executed, dt)
            clock.advance(executed)
            self.fast_forwarded_ticks += executed
            self.fast_forward_jumps += 1
            return False
        if any(player.scheduler.busy for player in players):
            # Jobs in flight with no live transfer anywhere: no
            # contract covers this edge, so the tick runs serially.
            return self._dispatch_tick(dt)
        # No transfer on the shared link: the network is a no-op, every
        # player replays playhead/UI only (the idle-jump argument).
        for player in players:
            player.apply_noop_ticks(ticks, dt)
        clock.advance(ticks)
        self.fast_forwarded_ticks += ticks
        self.fast_forward_jumps += 1
        return False


def run_shared_link(
    spec_or_names: Sequence,
    schedule: BandwidthSchedule,
    *,
    duration_s: float = 300.0,
    content_duration_s: Optional[float] = None,
    dt: float = 0.1,
    rtt_s: float = 0.05,
    content_seed: int = 11,
    fast_forward: bool = False,
    faults: Optional[FaultSpec] = None,
    engine: str = "tick",
) -> list[ClientResult]:
    """Deprecated positional-signature shim over the FleetSpec path.

    Build a :class:`~repro.core.fleet.FleetSpec` with an explicit
    roster (``services=`` one entry per client, ``clients=None``) and
    run it through :func:`~repro.core.fleet.run_fleet` instead — the
    spec-first call is picklable, cacheable and sweepable.  This shim
    routes through exactly that path and returns the same live
    :class:`ClientResult` list the old helper produced.
    """
    warnings.warn(
        "run_shared_link is deprecated; build a FleetSpec and call "
        "repro.core.fleet.run_fleet (keep_results=True for live handles)",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.core.fleet import FleetSpec, run_fleet

    spec = FleetSpec(
        services=tuple(spec_or_names),
        duration_s=duration_s,
        content_duration_s=content_duration_s,
        dt=dt,
        rtt_s=rtt_s,
        content_seed=content_seed,
        fast_forward=fast_forward,
        faults=faults,
        schedule=schedule,
        engine=engine,
    )
    outcome = run_fleet(spec, keep_results=True)
    return list(outcome.results)
