"""A streaming session: server + proxy + network + player + methodology.

:class:`Session` is the one-client case of the shared-link cell
(:class:`~repro.core.multi.MultiSession`): the cell's constructor body
wires together everything the paper's testbed had — origin,
man-in-the-middle proxy, `tc`-shaped network and the device running
the app — and the session adds what only one device under test has:
its LTE radio, the Xposed UI hook's probe extras (manifest rewriter,
request rejector, live analyzer), its end rule and its result.  It
returns a :class:`SessionResult` carrying both the methodology's view
(flows → analyzer → QoE) and the ground truth (player events) that
validates it.

It runs the cell's two loops: the tick oracle it inherits, which runs
only when a spec names ``engine="tick"``, and, through the
event-driven subclass (:class:`~repro.core.events.EventDrivenSession`),
the event loop every run defaults to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.analysis.bufferinfer import BufferEstimator
from repro.analysis.faults import FaultSpec
from repro.analysis.proxy import ManifestRewriter, Proxy, SegmentLimitRejector
from repro.analysis.qoe import QoeReport, compute_qoe
from repro.analysis.traffic import TrafficAnalyzer
from repro.analysis.ui import UiMonitor
from repro.core.multi import MultiSession
from repro.net.rrc import RrcMachine
from repro.net.schedule import BandwidthSchedule
from repro.obs import Observability
from repro.player.config import PlayerConfig
from repro.player.events import EventLog
from repro.player.player import Player, PlayerState
from repro.server.origin import OriginServer
from repro.services.profiles import BuiltService


class ResultFieldMissing(RuntimeError):
    """A :class:`SessionResult` accessor needs a field its replay path
    did not populate.

    Carries the field name and the provenance of the result, so the
    message explains *which* construction path (e.g. a compact
    ``RunRecord`` rehydration) dropped the data, instead of a bare
    ``AssertionError``.
    """

    def __init__(self, fields: str, replay_path: str):
        self.fields = fields
        self.replay_path = replay_path
        super().__init__(
            f"SessionResult field(s) {fields} not populated: this result "
            f"came from {replay_path}, which does not carry live session "
            "objects. Re-run with a live path (workers=0 / "
            "execute(..., keep_results=True)) to access them."
        )


@dataclass
class SessionResult:
    """Everything one session produced.

    The heavyweight fields are genuinely optional: compact replay paths
    (e.g. records deserialized by the sweep engine) may construct a
    result without live player/proxy objects.  ``replay_path`` names
    the construction path for error messages when an accessor needs a
    missing field.
    """

    service_name: str
    duration_s: float
    player_state: PlayerState
    events: Optional[EventLog] = field(repr=False, default=None)
    proxy: Optional[Proxy] = field(repr=False, default=None)
    analyzer: Optional[TrafficAnalyzer] = field(repr=False, default=None)
    ui: Optional[UiMonitor] = field(repr=False, default=None)
    qoe: Optional[QoeReport] = field(repr=False, default=None)
    rrc: Optional[RrcMachine] = field(repr=False, default=None)
    player: Optional[Player] = field(repr=False, default=None)
    replay_path: str = field(default="a partially-populated constructor call",
                             compare=False)

    def _require(self, **named: object):
        missing = [name for name, value in named.items() if value is None]
        if missing:
            raise ResultFieldMissing(", ".join(missing), self.replay_path)
        values = list(named.values())
        return values[0] if len(values) == 1 else values

    @property
    def buffer_estimator(self) -> BufferEstimator:
        analyzer, ui = self._require(analyzer=self.analyzer, ui=self.ui)
        return BufferEstimator(analyzer, ui)

    # Ground-truth shortcuts (validated against the methodology in tests)

    @property
    def true_stall_s(self) -> float:
        return self._require(events=self.events).total_stall_s()

    @property
    def true_stall_count(self) -> int:
        return self._require(events=self.events).stall_count()

    @property
    def true_startup_delay_s(self) -> float | None:
        return self._require(events=self.events).startup_delay_s()

    @property
    def playback_started(self) -> bool:
        return self.true_startup_delay_s is not None


class Session(MultiSession):
    """One configured run of one service over one bandwidth schedule."""

    def __init__(
        self,
        built: BuiltService,
        server: OriginServer,
        schedule: BandwidthSchedule,
        *,
        dt: float = 0.1,
        rtt_s: float = 0.05,
        manifest_rewriter: Optional[ManifestRewriter] = None,
        reject_after_segments: Optional[int] = None,
        player_config: Optional[PlayerConfig] = None,
        faults: Optional[FaultSpec] = None,
        obs: Optional[Observability] = None,
    ):
        if player_config is not None:
            built = replace(built, player_config=player_config)
        self.built = built
        self.obs = obs if obs is not None else Observability()
        # Set before the cell's body builds the player with it.
        self.tracer = self.obs.tracer
        super().__init__([built], server, schedule, dt=dt, rtt_s=rtt_s,
                         faults=faults)
        self.player = self.players[0]
        self.rrc = RrcMachine()
        if manifest_rewriter is not None:
            self.proxy.manifest_rewriter = manifest_rewriter
        self.live_analyzer: Optional[TrafficAnalyzer] = None
        if reject_after_segments is not None:
            self.live_analyzer = TrafficAnalyzer()
            self.proxy.flow_listeners.append(self.live_analyzer.observe_flow)
            self.proxy.rejector = SegmentLimitRejector(
                self.live_analyzer, reject_after_segments
            )

    def _all_done(self) -> bool:
        """The session ends when its player has, with no job in flight."""
        return self.player.ended and not self.player.scheduler.busy

    def _finish(self) -> SessionResult:
        analyzer = TrafficAnalyzer()
        analyzer.observe_flows(self.proxy.flows)
        ui = UiMonitor(self.player.ui_samples)
        qoe = compute_qoe(analyzer, ui, total_bytes=self.proxy.total_bytes())
        self._record_metrics()
        return SessionResult(
            service_name=self.built.spec.name,
            duration_s=self.clock.now,
            player_state=self.player.state,
            events=self.player.events,
            proxy=self.proxy,
            analyzer=analyzer,
            ui=ui,
            qoe=qoe,
            rrc=self.rrc,
            player=self.player,
            replay_path="a live Session.run",
        )

    def _record_metrics(self) -> None:
        """Fill the run's metrics registry from final subsystem state.

        Everything recorded here is a pure function of the run's inputs
        (nothing wall-clock- or process-dependent), preserving the
        sweep engine's workers=0 == workers=N aggregation contract.
        Tick-mode counters differ across engines — like TickStats, and
        by design: they *measure* the batching.
        """
        metrics = self.obs.metrics
        metrics.counter("session.runs").inc()
        metrics.counter("session.ticks", mode="executed").inc(
            self.ticks_executed
        )
        metrics.counter("session.ticks", mode="idle_ff").inc(
            self.fast_forwarded_ticks
        )
        metrics.counter("session.ticks", mode="transfer_ff").inc(
            self.transfer_fast_forwarded_ticks
        )
        metrics.counter("session.ff_jumps", layer="idle").inc(
            self.fast_forward_jumps
        )
        metrics.counter("session.ff_jumps", layer="transfer").inc(
            self.transfer_fast_forward_jumps
        )
        metrics.counter("session.simulated_seconds").inc(self.clock.now)
        metrics.counter("rrc.energy_j").inc(self.rrc.energy_j)
        self.network.metrics_into(metrics)
        self.player.metrics_into(metrics)
