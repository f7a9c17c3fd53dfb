"""Players sharing one cellular bottleneck: the cell and its two loops.

The paper's related work (FESTIVE, reference [31]) is about fairness
between concurrent HAS clients on a shared link — a question this
testbed can answer directly: :class:`MultiSession` runs N independent
players (possibly different services) against one shaped link, with a
single proxy capturing all flows, and attributes downloads back to
each player by URL namespace.

Every simulation runs a cell: a single session
(:class:`~repro.core.session.Session`) is its one-client case, so one
constructor body builds the clock, fault injector, proxy, network and
players for both, and two loops run them (DESIGN.md §4q):

* the tick oracle, :meth:`MultiSession.run`, which executes every
  tick; it runs only when a spec names ``engine="tick"``, which is how
  the identity tests and the benchmark's checks pin the event loop;
* the event loop, :class:`EventDrivenMultiSession`, the default
  everywhere.  Producers push their next instant into one
  :class:`~repro.core.event_queue.EventQueue` — each client's wake,
  the churn instants and the fault plane's change points — and the
  clock advances event to event, executing a serial tick only at
  event instants.

Byte identity with the oracle is non-negotiable, and it pins the
design.  The oracle accumulates floats per tick (``pos += dt``,
``delivered_bytes += rate * dt / 8`` and the clock's rounded step),
so a closed-form jump would land on different ulps: batched windows
are *replayed* through the per-tick primitives ``Network.advance_many``
and ``Player.apply_noop_ticks``, which run the identical arithmetic
without the per-tick decisions, reading tick instants from the
clock's shared timeline (``net/clock.py``).  Event instants run the
oracle's tick body.  Dispatch labels are read after the tick, so they
cannot perturb it.  A window ends only where the simulation must
react (DESIGN.md §4n): segment starts and capacity steps replay inside
it, and transfer completions need no queue entry, because
``advance_many`` ends its window on the tick that completes a
transfer and hands the completions back unfired; the loop dispatches
that tick with its bytes already moved and fires them there
(DESIGN.md §4r).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.faults import FaultInjectingHandler, FaultSpec
from repro.analysis.proxy import FlowRecord, Proxy
from repro.analysis.qoe import QoeReport, compute_qoe
from repro.analysis.traffic import TrafficAnalyzer
from repro.analysis.ui import UiMonitor
from repro.core.event_queue import Event, EventQueue, EventType
from repro.net.clock import Clock
from repro.net.network import Network
from repro.net.rrc import RrcMachine
from repro.net.schedule import BandwidthSchedule
from repro.obs import NULL_TRACER, EventJump, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.player.events import SegmentPlayStarted, SessionEnded
from repro.player.player import Player, PlayerState
from repro.server.origin import OriginServer
from repro.services.profiles import BuiltService

#: The simulation engines, by name: the tick oracle and the event loop.
ENGINES = ("tick", "event")


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
    """N players, one link, one clock, one flow capture.

    The constructor body and the tick oracle of every session: a single
    session is the one-client case, and adds only what real behaviour
    needs (its radio, its probe extras, its end rule, its result).
    """

    engine = "tick"
    #: The device's LTE radio, observed once per tick.  Only a single
    #: session models one; a shared cell has none.
    rrc: Optional[RrcMachine] = None
    #: Where the players and the event loop emit trace spans.  A single
    #: session sets its run's tracer; a shared cell runs untraced.
    tracer: Tracer = NULL_TRACER

    def __init__(
        self,
        builts: Sequence[BuiltService],
        server: OriginServer,
        schedule: BandwidthSchedule,
        *,
        dt: float = 0.1,
        rtt_s: float = 0.05,
        faults: Optional[FaultSpec] = None,
        arrivals: Optional[Sequence[float]] = None,
        departures: Optional[Sequence[Optional[float]]] = None,
    ):
        if not builts:
            raise ValueError("need at least one client")
        self.builts = list(builts)
        # Tick accounting (TickStats): the tick loop only executes; the
        # event engine fills the batched-tick counters too.
        self.ticks_executed = 0
        self.fast_forwarded_ticks = 0
        self.fast_forward_jumps = 0
        self.transfer_fast_forwarded_ticks = 0
        self.transfer_fast_forward_jumps = 0
        self.clock = Clock(dt=dt)
        self.faults = faults
        # Origin-side faults sit between the proxy and the origin (the
        # proxy must record what actually went over the wire); the
        # transport plane rides inside the network.
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
                   built.manifest_url, cipher=built.cipher,
                   tracer=self.tracer)
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

    def run(self, duration_s: float):
        """The tick oracle: tick the world until ``duration_s`` or the end.

        Returns what :meth:`_finish` builds: a cell's
        :class:`ClientResult` list, a session's ``SessionResult``.
        """
        dt = self.clock.dt
        self._duration = duration_s
        players = self.players
        while self.clock.now < duration_s - 1e-9:
            if self._churn:
                self._process_churn(self.clock.now)
            self._advance_network(dt)
            for index in self._active:
                players[index].advance(dt)
            self.clock.tick()
            self.ticks_executed += 1
            if self._all_done():
                break
        return self._finish()

    def record_loop_metrics(self, metrics: MetricsRegistry) -> None:
        """Record the event loop's counters; the tick oracle keeps none."""

    def _advance_network(self, dt: float) -> None:
        """One tick of the shared link; the radio, if any, observes
        whether it carried bytes."""
        rrc = self.rrc
        if rrc is None:
            self.network.advance(dt)
            return
        link = self.network.link
        before = link.total_bytes_delivered
        self.network.advance(dt)
        rrc.observe(link.total_bytes_delivered > before, dt)

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
        """The cell's end rule: every arrived, unretired client has ended
        and no client is still due to arrive."""
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

    # -- results -----------------------------------------------------------

    def _final_state(self, index: int) -> str:
        if self._churn and not self._arrived[index]:
            return "unarrived"
        if self._retired[index]:
            return "departed"
        return self.players[index].state.value

    def _finish(self) -> list[ClientResult]:
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


#: Dispatch labels, most telling first.  A dispatched tick takes the
#: first label any client it touched earns; ``fault_change`` outranks
#: them all (a reset both fires a fault and fails jobs; the fault is
#: the cause), and ``noop`` is the residue.
_LABELS = (
    "transfer_complete",
    "fetch_submitted",
    "state_transition",
    "segment_boundary",
    "player_event",
    "pause_flip",
    "noop",
)


def _signature(player: Player) -> tuple:
    """What a dispatched tick can move in one player: state, wire
    completions, jobs in flight, events emitted and pause flags."""
    scheduler = player.scheduler
    return (
        player.state,
        scheduler.completed_parts,
        scheduler.inflight(),
        len(player.events.events),
        player.pause_state(),
    )


class EventDrivenMultiSession(MultiSession):
    """A :class:`MultiSession` stepping event to event on one queue.

    The one event loop, for a shared cell and for a single session
    alike.  Every player keeps one ``PLAYER_WAKE`` (its margin-contract
    deadline, absolute), and the fault plane and the churn roster their
    static entries, all in one shared :class:`EventQueue`.  A
    dispatched tick runs ``network.advance`` for the cell, then a full
    ``player.advance`` only for the clients it *touches* (see
    :meth:`_dispatch_tick`); every other client sits inside the no-op
    window its own wake certified and replays the tick with
    ``apply_noop_ticks(1)``.  Producers are refreshed for the touched
    clients only, so per-dispatch bookkeeping scales with them, not
    with the cell.  Batched windows replay through the identical
    primitives (``Network.advance_many`` over the shared link,
    per-player ``apply_noop_ticks``), keeping results byte-identical to
    the tick loop.

    Its accounting lands in the tick counters (``ticks_executed`` =
    dispatched ticks, ``fast_forwarded_ticks`` /
    ``transfer_fast_forwarded_ticks`` = batched idle / transfer ticks),
    so :class:`~repro.core.parallel.TickStats` and its
    ``ticks_simulated`` invariant hold on both engines.  Every dispatch
    is labelled (``dispatch_counts``), every ``advance_many`` stop
    counted by reason (``advance_stop_counts``), and every batched
    window emits an ``event_jump`` span to :attr:`tracer`.
    """

    engine = "event"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        count = len(self.players)
        self.queue = EventQueue()
        self.dispatch_counts: dict[str, int] = {}
        self.advance_stop_counts: dict[str, int] = {}
        self.max_queue_depth = 0
        self._limit = 0.0
        self._wake_handles: list[Event | None] = [None] * count
        self._wake_sigs: list[object] = [None] * count
        # Per client: its scheduler's wire completions at its last full tick.
        self._parts_seen = [0] * count

    def run(self, duration_s: float) -> list[ClientResult]:
        return self._run_events(duration_s)

    def record_loop_metrics(self, metrics: MetricsRegistry) -> None:
        """Dispatches by label, queue pushes and cancels, the deepest
        queue and ``advance_many`` stops by reason, for a session and a
        fleet alike.  All are pure functions of the spec (the
        sweep-aggregation contract): the queue's content is fully
        determined by the faults, the churn and the deterministic
        producers.
        """
        metrics.counter("session.dispatches").inc(self.ticks_executed)
        for kind in sorted(self.dispatch_counts):
            metrics.counter("session.events", type=kind).inc(
                self.dispatch_counts[kind]
            )
        metrics.counter("session.queue_pushes").inc(self.queue.pushed_total)
        metrics.counter("session.queue_cancelled").inc(
            self.queue.cancelled_total
        )
        metrics.gauge("session.queue_depth_max").set(self.max_queue_depth)
        for reason in sorted(self.advance_stop_counts):
            metrics.counter("session.advance_stops", reason=reason).inc(
                self.advance_stop_counts[reason]
            )

    def _run_events(self, duration_s: float):
        """The event loop: dispatch event instants, batch between them.

        Both event-driven classes' ``run`` call it (DESIGN.md §4q).
        """
        dt = self.clock.dt
        limit = duration_s - 1e-9
        self._limit = limit
        self._duration = duration_s
        self._register_static_events(duration_s)
        if self._churn:
            self._process_churn(self.clock.now)
        self._refresh_producers(
            self._active, [_signature(self.players[i]) for i in self._active]
        )
        clock = self.clock
        while clock.now < limit:
            now = clock.now
            next_t = self.queue.next_time()
            if next_t <= now + 1e-9:
                if self._dispatch_tick(dt):
                    break
                continue
            if self._batch_to(min(next_t, limit), limit, dt):
                break
        return self._finish()

    # -- static producers --------------------------------------------------

    def _register_static_events(self, duration_s: float) -> None:
        """The instants known up front, one queue entry each.

        The fault plane's dead-air boundaries and reset times, and every
        churn instant inside the run: batched windows clamp just before
        them, so faults change, arrivals activate and departures retire
        on a dispatched tick — the same tick the oracle's per-tick scan
        picks.  Schedule change points are *not* events:
        ``advance_many`` re-reads the capacity on the tick that reaches
        one, and idle windows do not depend on capacity at all.
        """
        queue = self.queue
        faults = self.network.faults
        if faults is not None:
            for window in faults.dead_air:
                queue.push(window.start_s, EventType.FAULT_CHANGE,
                           "dead_air_start")
                queue.push(window.end_s, EventType.FAULT_CHANGE,
                           "dead_air_end")
            for at in faults.reset_times:
                queue.push(at, EventType.FAULT_CHANGE, "reset")
        if self._churn:
            for index in range(len(self.players)):
                arrival = self.arrivals[index]
                if 1e-9 < arrival < duration_s - 1e-9:
                    queue.push(arrival, EventType.CLIENT_CHURN, index)
                departure = self.departures[index]
                if departure is not None and departure < duration_s - 1e-9:
                    queue.push(departure, EventType.CLIENT_CHURN, index)
        self.max_queue_depth = len(queue)

    def _retire(self, index: int, now: float) -> None:
        """Retire the client and cancel the wake it owns."""
        super()._retire(index, now)
        handle = self._wake_handles[index]
        if handle is not None:
            self.queue.cancel(handle)
        self._wake_handles[index] = None

    # -- serial event instants --------------------------------------------

    def _dispatch_tick(self, dt: float, carried: bool = False,
                       completed: Optional[list] = None) -> bool:
        """One oracle tick at an event instant; True ends the session.

        The network step is ``network.advance``, or, on the tick that
        ends a batched window, ``Network.complete`` over the transfers
        ``advance_many`` ``completed`` there (it moved their bytes;
        ``carried`` says whether it moved any).  After the network
        step a client is *touched* — runs a full ``player.advance`` —
        when its wake was popped at this instant or it has none (it
        just arrived), when its scheduler's ``completed_parts`` moved
        since its last full tick (a completion, abort, reset or failure
        fired in this tick's network step), or when a fault change
        point popped.  Any other client's wake lies strictly in the
        future, so this tick falls inside the no-op window its margin
        contract certified, where ``apply_noop_ticks(1)`` is
        bit-identical to ``advance``.  The replay is eager, in client
        order: completion callbacks read player state, so no client
        may lag behind the clock.  A single session's one client is
        touched on every dispatch.
        """
        now = self.clock.now
        due = self.queue.pop_due(now + 1e-9)
        if self._churn:
            self._process_churn(now)
        if completed is None:
            self._advance_network(dt)
        else:
            self.network.complete(completed)
            if self.rrc is not None:
                self.rrc.observe(carried, dt)
        everyone = any(event.type is EventType.FAULT_CHANGE for event in due)
        players = self.players
        wakes = self._wake_handles
        parts_seen = self._parts_seen
        touched = []
        before = []
        for index in self._active:
            player = players[index]
            wake = wakes[index]
            if player.scheduler.completed_parts != parts_seen[index]:
                before.append(None)  # labelled transfer_complete anyway
            elif everyone or wake is None or wake.cancelled:
                before.append(_signature(player))
            else:
                player.apply_noop_ticks(1, dt)
                continue
            player.advance(dt)
            touched.append(index)
        self.clock.tick()
        self.ticks_executed += 1
        after = [_signature(players[index]) for index in touched]
        kind = (
            "fault_change" if everyone
            else self._label(touched, before, after)
        )
        self.dispatch_counts[kind] = self.dispatch_counts.get(kind, 0) + 1
        if self._all_done():
            return True  # mirror the oracle's post-tick break
        self._refresh_producers(touched, after)
        return False

    def _label(
        self, touched: Sequence[int], before: Sequence[tuple],
        after: Sequence[tuple],
    ) -> str:
        """Name what a dispatched tick did, from its touched clients'
        signatures (post-hoc, so it cannot perturb the tick).

        ``before`` is read after the network step: a completion in it
        is judged against the client's completions at its last full
        tick (such a client has no ``before``, only that label to
        earn), and without one the network step moves nothing else the
        signature holds.  Completion is counted at the
        wire level (``completed_parts``), so a split job's intermediate
        parts label their ticks too.  ``noop`` is the honest residue:
        ticks executed without a state change to show for them
        (conservative margins), the engine's blind steps.
        """
        best = len(_LABELS) - 1
        for index, was, sig in zip(touched, before, after):
            if sig[1] != self._parts_seen[index]:
                return _LABELS[0]
            state, _, inflight, emitted, paused = was
            if sig[2] > inflight:
                rank = 1
            elif sig[0] is not state:
                rank = 2
            elif sig[3] > emitted:
                first = self.players[index].events.events[emitted]
                rank = 3 if isinstance(first, SegmentPlayStarted) else 4
            elif sig[4] != paused:
                rank = 5
            else:
                continue
            best = min(best, rank)
        return _LABELS[best]

    # -- the wake producer -------------------------------------------------

    def _refresh_producers(
        self, touched: Sequence[int], sigs: Sequence[tuple]
    ) -> None:
        """Re-arm the touched clients' wakes.

        Only a full tick can move a player's mode or margin premises,
        so bystanders keep their absolute wakes.  Among the touched, an
        unchanged signature skips the margin walk; a popped or missing
        wake always recomputes, so serial stretches re-vet every tick.
        A recomputed deadline equal to the live wake's keeps the old
        entry, which holds queue pushes below one per dispatch.
        """
        queue = self.queue
        players = self.players
        wakes = self._wake_handles
        for index, sig in zip(touched, sigs):
            self._parts_seen[index] = sig[1]
            handle = wakes[index]
            live = handle is not None and not handle.cancelled
            if live and sig == self._wake_sigs[index]:
                continue  # this producer's state did not change
            self._wake_sigs[index] = sig
            deadline = self._player_deadline(players[index])
            if live:
                if abs(handle.time - deadline) <= 1e-9:
                    continue
                queue.cancel(handle)
            wakes[index] = queue.push(deadline, EventType.PLAYER_WAKE, index)
            if len(queue) > self.max_queue_depth:
                self.max_queue_depth = len(queue)

    def _player_deadline(self, player: Player) -> float:
        """This player's absolute wake deadline under its current mode.

        The margin contracts return provable no-op tick counts from
        *now*; as an absolute instant the deadline stays valid across
        batch rounds, because mode and margin premises only change at a
        dispatched tick.  A busy scheduler vets via
        ``transfer_noop_ticks``: between dispatches each of its jobs has
        a part on the wire (``Scheduler``), and a completion ends the
        window on a dispatched tick.  Otherwise the playing/stalled
        contracts apply.
        """
        clock = self.clock
        now = clock.now
        dt = clock.dt
        remaining = int((self._limit - now) / dt) + 1
        if remaining < 1:
            remaining = 1
        if player.scheduler.busy:
            ticks = player.transfer_noop_ticks(dt, remaining)
        elif player.state is PlayerState.PLAYING:
            ticks = player.idle_noop_ticks(dt, remaining)
        else:
            ticks = player.stalled_noop_ticks(dt, remaining)
        return now + ticks * dt

    # -- batched windows ---------------------------------------------------

    def _batch_to(self, target: float, limit: float, dt: float) -> bool:
        """Replay the certified no-op window ending at ``target``.

        The window covers every tick that starts before ``target`` (the
        same ``int(...)`` truncation as the margin contracts).  Nothing
        is re-derived per round: wakes are absolute deadlines, valid
        until the next dispatch, and fault and churn instants are queue
        entries, so ``target`` already stops short of them.  Every
        player replays its own no-op ticks against the shared clock.
        A transfer window that ends on a completing tick replays the
        ticks before it — clock, radio and players — and then
        dispatches that tick, so its completions fire at its start with
        every player caught up, as in the oracle.  Returns True when a
        dispatch ended the session.
        """
        clock = self.clock
        now = clock.now
        # The cap includes the final tick: the oracle executes ticks
        # while now < limit, so the last window may batch straight
        # through to the end instead of dispatching one serial tick.
        remaining = int((limit - now) / dt) + 1
        ticks = int((target - now - 1e-9) / dt) + 1
        if ticks > remaining:
            ticks = remaining
        if ticks < 1:
            return self._dispatch_tick(dt)
        players = [self.players[index] for index in self._active]
        rrc = self.rrc
        if self.network.steady_for_batching():
            executed, activity, reason, completed = (
                self.network.advance_many(ticks, dt)
            )
            counts = self.advance_stop_counts
            counts[reason] = counts.get(reason, 0) + 1
            if executed <= 0:
                return self._dispatch_tick(dt)  # a reset is due now
            if completed:
                # The completing tick is dispatched below.
                executed -= 1
                carried = activity.pop()
            if executed:
                for player in players:
                    player.apply_noop_ticks(executed, dt)
                if rrc is not None:
                    rrc.observe_many(activity, dt)
                clock.advance(executed)
                self.transfer_fast_forwarded_ticks += executed
                self.transfer_fast_forward_jumps += 1
                self._emit_jump(now, "transfer", executed, reason)
            if completed:
                return self._dispatch_tick(dt, carried, completed)
            return False
        # With no transfer on the link, no active client has a job in
        # flight (the scheduler's invariant, DESIGN.md §4q), the
        # network moves no bytes and connection control is a no-op (the
        # idle-jump argument, DESIGN.md §4a): players replay playhead
        # and UI only, the radio observes idle ticks, network.advance
        # is skipped.
        for player in players:
            player.apply_noop_ticks(ticks, dt)
        if rrc is not None:
            rrc.observe_many(itertools.repeat(False, ticks), dt)
        clock.advance(ticks)
        self.fast_forwarded_ticks += ticks
        self.fast_forward_jumps += 1
        playing = all(
            player.state is PlayerState.PLAYING for player in players
        )
        self._emit_jump(now, "idle" if playing else "stalled", ticks,
                        "player_wake")
        return False

    def _emit_jump(
        self, start: float, layer: str, ticks: int, bound: str
    ) -> None:
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                EventJump(
                    at=start,
                    layer=layer,
                    ticks=ticks,
                    end_s=self.clock.now,
                    next_event=bound,
                )
            )
