"""A streaming session: server + proxy + network + player + methodology.

:class:`Session` wires together everything the paper's testbed had —
origin, man-in-the-middle proxy, `tc`-shaped network, device running
the app, Xposed UI hook, and an LTE radio — runs the session tick by
tick, and returns a :class:`SessionResult` carrying both the
methodology's view (flows → analyzer → QoE) and the ground truth
(player events) that validates it.

The tick loop is the oracle: every run defaults to the event-driven
subclass (:class:`~repro.core.events.EventDrivenSession`), and this
loop runs only when a spec names ``engine="tick"``, which is how the
identity tests and the benchmark's checks pin the fast engine to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.analysis.bufferinfer import BufferEstimator
from repro.analysis.faults import FaultInjectingHandler, FaultSpec
from repro.analysis.proxy import ManifestRewriter, Proxy, SegmentLimitRejector
from repro.analysis.qoe import QoeReport, compute_qoe
from repro.analysis.traffic import TrafficAnalyzer
from repro.analysis.ui import UiMonitor
from repro.net.clock import Clock
from repro.net.network import Network
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


class Session:
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
        self.built = built
        self.obs = obs if obs is not None else Observability()
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
        self.player = Player(
            self.clock,
            self.network,
            player_config or built.player_config,
            built.manifest_url,
            cipher=built.cipher,
            tracer=self.obs.tracer,
        )

    def run(self, duration_s: float) -> SessionResult:
        """Tick the world until ``duration_s`` or the session ends."""
        if self.obs.profiler is not None:
            return self._run_profiled(duration_s)
        dt = self.clock.dt
        while self.clock.now < duration_s - 1e-9:
            before = self.network.link.total_bytes_delivered
            self.network.advance(dt)
            radio_active = self.network.link.total_bytes_delivered > before
            self.rrc.observe(radio_active, dt)
            self.player.advance(dt)
            self.clock.tick()
            self.ticks_executed += 1
            if self.player.ended and not self.player.scheduler.busy:
                break
        return self._finish()

    def _run_profiled(self, duration_s: float) -> SessionResult:
        """The serial loop with per-phase wall-time accounting.

        A separate method (not timers inside :meth:`run`) so the
        default loop pays nothing when profiling is off.  Phase times
        accumulate in local floats and reach the profiler once at the
        end.
        """
        profiler = self.obs.profiler
        assert profiler is not None
        dt = self.clock.dt
        wall = {"network": 0.0, "player": 0.0, "rrc": 0.0}
        calls = {"network": 0, "player": 0, "rrc": 0}
        while self.clock.now < duration_s - 1e-9:
            t0 = perf_counter()
            before = self.network.link.total_bytes_delivered
            self.network.advance(dt)
            radio_active = self.network.link.total_bytes_delivered > before
            t1 = perf_counter()
            self.rrc.observe(radio_active, dt)
            t2 = perf_counter()
            self.player.advance(dt)
            t3 = perf_counter()
            wall["network"] += t1 - t0
            wall["rrc"] += t2 - t1
            wall["player"] += t3 - t2
            calls["network"] += 1
            calls["rrc"] += 1
            calls["player"] += 1
            self.clock.tick()
            self.ticks_executed += 1
            if self.player.ended and not self.player.scheduler.busy:
                break
        t0 = perf_counter()
        result = self._finish()
        wall["finish"] = perf_counter() - t0
        calls["finish"] = 1
        for phase, seconds in wall.items():
            profiler.add(phase, seconds, calls[phase])
        return result

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
