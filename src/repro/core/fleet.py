"""Fleet-scale shared-cell simulation: N sessions on one bottleneck.

The paper's §3 root causes — slow-start penalty, parallel-connection
unfairness — are contention phenomena, yet a :class:`~repro.core.parallel.RunSpec`
simulates one client per trace.  This module is the population layer:
a :class:`FleetSpec` describes N sessions sharing one cell (mixed
services and device classes drawn from weighted pools, seeded Poisson
arrival/departure churn, per-client content seeds), a
:class:`FleetSession` executes them on the shared-queue engines from
:mod:`repro.core.multi`, and a :class:`FleetOutcome` carries the
picklable population result: per-client :class:`~repro.core.multi.ClientRecord`
summaries, QoE distribution percentiles, Jain's fairness index,
per-service breakdowns and a metrics snapshot.

Mirrors the RunSpec→RunOutcome shape on purpose: specs are frozen,
picklable and canonicalizable, so fleets ride the whole PR 5/8 fabric
— ``execute()`` dispatch, the content-addressed outcome cache, the
crash-safe sweep supervisor and resumable journals — without special
cases.  Scale comes from the vectorized water-fill
(:func:`repro.net.link.allocate`) on the shared link plus the event
engine's producer-pushed deadlines; both are pinned byte-identical to
the scalar/tick oracles, so a small fleet run through ``engine="tick"``
is the ground truth for the big ones.

Churn determinism: every stochastic roster choice (service mix, device
mix, inter-arrival gaps, dwell times) draws from its own
:func:`~repro.util.rng.derive_seed` child of ``churn_seed``, so adding
a consumer never perturbs existing streams and the roster is a pure
function of the spec.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field, replace
from typing import Hashable, Optional, Union

from repro.analysis.faults import FaultSpec
from repro.core.multi import (
    ENGINES,
    ClientRecord,
    ClientResult,
    EventDrivenMultiSession,
    MultiSession,
)
from repro.core.parallel import TickStats
from repro.net.schedule import BandwidthSchedule
from repro.net.traces import TRACE_SEED, profile_schedule
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.server.origin import OriginServer
from repro.services.profiles import (
    DEFAULT_CONTENT_SEED,
    ServiceSpec,
    build_service,
    get_service,
)
from repro.util.rng import derive_seed

#: The distribution points population summaries report.
PERCENTILES = (5, 25, 50, 75, 90, 95, 99)

#: Histogram buckets for per-client average displayed bitrate (Mbps).
BITRATE_BUCKETS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)

PercentileRow = tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class DeviceClass:
    """A picklable bundle of player-config overrides naming a device.

    Device diversity (Hoque et al., PAPERS.md) enters the fleet as
    config deltas on otherwise service-defined players: a phone pauses
    sooner (small buffer memory), a TV buffers deeper.  Overrides are
    ``(field, value)`` pairs applied with ``dataclasses.replace`` to
    the service's :class:`~repro.player.config.PlayerConfig` — the same
    simple-field mechanism :class:`~repro.core.parallel.RunSpec` uses,
    which is exactly what keeps a :class:`FleetSpec` picklable.
    """

    name: str
    config_overrides: tuple[tuple[str, object], ...] = ()


DEFAULT_DEVICE = DeviceClass("default")

#: Stock device classes a fleet can mix (referenced by name in the CLI).
DEVICE_CLASSES = {
    "default": DEFAULT_DEVICE,
    "phone": DeviceClass(
        "phone",
        (("pause_threshold_s", 30.0), ("resume_threshold_s", 25.0)),
    ),
    "tv": DeviceClass(
        "tv",
        (("pause_threshold_s", 120.0), ("resume_threshold_s", 100.0)),
    ),
}


def get_device_class(name: str) -> DeviceClass:
    try:
        return DEVICE_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(DEVICE_CLASSES))
        raise ValueError(f"unknown device class {name!r} (known: {known})")


@dataclass(frozen=True)
class ClientPlan:
    """One roster slot: everything decided about a client up front."""

    index: int
    service: Union[str, ServiceSpec]
    device: DeviceClass
    arrival_s: float
    departure_s: Optional[float]
    content_seed: int

    @property
    def service_name(self) -> str:
        return (
            self.service
            if isinstance(self.service, str)
            else self.service.name
        )


@dataclass(frozen=True)
class FleetSpec:
    """A picklable description of N sessions on one shared cell.

    Two roster modes share the type:

    * **explicit** (``clients=None``): one client per ``services``
      entry, in order, devices cycling through ``devices`` — the
      deterministic mode for hand-built rosters, with per-client
      naming, seeding and URL namespaces fixed by position.
    * **weighted** (``clients=N``): each client's service and device
      class are drawn from the pools under ``service_weights`` /
      ``device_weights`` with seeded generators, so a thousand-client
      mix is three lines of spec.

    Churn: ``arrival_rate_per_s`` turns on a Poisson arrival process
    (exponential inter-arrival gaps from a ``churn_seed`` stream);
    clients whose arrival falls past ``duration_s`` count as offered
    but never carried load.  ``mean_dwell_s`` draws an exponential
    watch time per client; a departure past the end of the run means
    the client stays.  Both default off, which reproduces the
    everyone-at-tick-zero behaviour bit for bit.

    The bandwidth source resolves like a RunSpec: an explicit
    ``schedule`` wins, else the synthetic cellular ``profile_id``.
    """

    services: tuple[Union[str, ServiceSpec], ...]
    clients: Optional[int] = None
    service_weights: Optional[tuple[float, ...]] = None
    devices: tuple[DeviceClass, ...] = (DEFAULT_DEVICE,)
    device_weights: Optional[tuple[float, ...]] = None
    duration_s: float = 300.0
    content_duration_s: Optional[float] = None
    dt: float = 0.1
    rtt_s: float = 0.05
    content_seed: int = DEFAULT_CONTENT_SEED
    churn_seed: int = 0
    arrival_rate_per_s: Optional[float] = None
    mean_dwell_s: Optional[float] = None
    profile_id: int = 0
    trace_seed: int = TRACE_SEED
    schedule: Optional[BandwidthSchedule] = None
    faults: Optional[FaultSpec] = None
    engine: str = "event"

    def __post_init__(self) -> None:
        if not self.services:
            raise ValueError("a fleet needs at least one service")
        if self.clients is not None and self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if not self.devices:
            raise ValueError("a fleet needs at least one device class")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        for weights, pool, label in (
            (self.service_weights, self.services, "service_weights"),
            (self.device_weights, self.devices, "device_weights"),
        ):
            if weights is None:
                continue
            if self.clients is None:
                raise ValueError(
                    f"{label} only applies to the weighted draw mode; "
                    f"set clients= or drop the weights"
                )
            if len(weights) != len(pool):
                raise ValueError(f"{label} must align with its pool")
            if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
                raise ValueError(f"{label} needs a positive total")
        if self.arrival_rate_per_s is not None and self.arrival_rate_per_s <= 0:
            raise ValueError("arrival_rate_per_s must be > 0")
        if self.mean_dwell_s is not None and self.mean_dwell_s <= 0:
            raise ValueError("mean_dwell_s must be > 0")

    @property
    def size(self) -> int:
        return self.clients if self.clients is not None else len(self.services)

    def resolved_schedule(self) -> BandwidthSchedule:
        if self.schedule is not None:
            return self.schedule
        return profile_schedule(
            self.profile_id, int(self.duration_s), self.trace_seed
        )

    def canonicalized(self) -> "FleetSpec":
        """Every lazily-defaulted field resolved to its effective value
        (the outcome cache's key-space collapse, mirroring RunSpec)."""
        return replace(
            self,
            services=tuple(
                get_service(s) if isinstance(s, str) else s
                for s in self.services
            ),
            schedule=self.resolved_schedule(),
            profile_id=0,
            trace_seed=0,
            content_duration_s=self.content_duration_s or self.duration_s,
        )

    def roster(self) -> tuple[ClientPlan, ...]:
        """The fully decided client list — a pure function of the spec."""
        count = self.size
        if self.clients is None:
            service_picks = list(self.services)
            device_picks = [
                self.devices[i % len(self.devices)] for i in range(count)
            ]
        else:
            mix = random.Random(derive_seed(self.churn_seed, "fleet.mix"))
            service_picks = mix.choices(
                list(self.services),
                weights=self.service_weights,
                k=count,
            )
            device_mix = random.Random(
                derive_seed(self.churn_seed, "fleet.devices")
            )
            device_picks = device_mix.choices(
                list(self.devices),
                weights=self.device_weights,
                k=count,
            )
        arrivals = [0.0] * count
        if self.arrival_rate_per_s is not None:
            arrival_rng = random.Random(
                derive_seed(self.churn_seed, "fleet.arrivals")
            )
            t = 0.0
            for i in range(count):
                t += arrival_rng.expovariate(self.arrival_rate_per_s)
                arrivals[i] = t
        departures: list[Optional[float]] = [None] * count
        if self.mean_dwell_s is not None:
            dwell_rng = random.Random(
                derive_seed(self.churn_seed, "fleet.dwell")
            )
            for i in range(count):
                dwell = dwell_rng.expovariate(1.0 / self.mean_dwell_s)
                departure = arrivals[i] + max(dwell, self.dt)
                if departure < self.duration_s - 1e-9:
                    departures[i] = departure
        return tuple(
            ClientPlan(
                index=i,
                service=service_picks[i],
                device=device_picks[i],
                arrival_s=arrivals[i],
                departure_s=departures[i],
                content_seed=self.content_seed + i,
            )
            for i in range(count)
        )


def fleet_catalogue_key(spec: FleetSpec) -> Hashable:
    """Chunk-grouping identity for the sweep fabric's locality planner.

    Fleets sharing a service pool, content duration and seed base hit
    the same per-client encode set, so they belong on the same worker.
    """
    names = tuple(
        s if isinstance(s, str) else s.name for s in spec.services
    )
    return (
        "fleet",
        names,
        spec.content_duration_s or spec.duration_s,
        spec.content_seed,
    )


# ---------------------------------------------------------------------------
# Population summary
# ---------------------------------------------------------------------------


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method), pure
    Python so summaries never depend on an optional import."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = (len(sorted_values) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return sorted_values[low]
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


def _percentile_row(values: list[float]) -> PercentileRow:
    ordered = sorted(values)
    return tuple((q, _percentile(ordered, q)) for q in PERCENTILES)


def jain_index(values: list[float]) -> float:
    """Jain's fairness index over ``values``; 1.0 for empty/degenerate
    populations (nothing to be unfair about)."""
    total = sum(values)
    squares = sum(v * v for v in values)
    if not values or squares <= 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass(frozen=True)
class ServicePopulation:
    """Per-service slice of the population (arrived clients only)."""

    service: str
    clients: int
    stalled: int
    mean_bitrate_mbps: float
    mean_stall_s: float


@dataclass(frozen=True)
class PopulationSummary:
    """Distribution view of a fleet: what one QoE row can't show.

    Percentile rows are ``(percentile, value)`` pairs over the *arrived*
    population; ``stall_rate`` is per-client stall time over on-screen
    time (stalled + played), the paper's stall-ratio shape.
    """

    clients: int
    arrived: int
    departed: int
    completed: int
    stalled: int
    startup_s: PercentileRow
    stall_s: PercentileRow
    stall_rate: PercentileRow
    bitrate_mbps: PercentileRow
    jain_bitrate: float
    per_service: tuple[ServicePopulation, ...]


def summarize_population(
    records: tuple[ClientRecord, ...]
) -> PopulationSummary:
    arrived = [r for r in records if r.final_state != "unarrived"]
    startups = [
        r.qoe.startup_delay_s
        for r in arrived
        if r.qoe.startup_delay_s is not None
    ]
    stalls = [r.qoe.total_stall_s for r in arrived]
    stall_rates = []
    for r in arrived:
        on_screen = r.qoe.played_s + r.qoe.total_stall_s
        stall_rates.append(
            r.qoe.total_stall_s / on_screen if on_screen > 0 else 0.0
        )
    bitrates = [
        r.qoe.average_displayed_bitrate_bps / 1e6 for r in arrived
    ]
    by_service: dict[str, list[ClientRecord]] = {}
    for r in arrived:
        # Per-client builds rename services "H1#3" for distinct players;
        # the population view groups them back under the base service.
        by_service.setdefault(r.service_name.split("#", 1)[0], []).append(r)
    per_service = tuple(
        ServicePopulation(
            service=name,
            clients=len(group),
            stalled=sum(1 for r in group if r.qoe.stall_count > 0),
            mean_bitrate_mbps=sum(
                r.qoe.average_displayed_bitrate_bps for r in group
            )
            / (len(group) * 1e6),
            mean_stall_s=sum(r.qoe.total_stall_s for r in group)
            / len(group),
        )
        for name, group in sorted(by_service.items())
    )
    return PopulationSummary(
        clients=len(records),
        arrived=len(arrived),
        departed=sum(1 for r in records if r.final_state == "departed"),
        completed=sum(1 for r in records if r.final_state == "ended"),
        stalled=sum(1 for r in arrived if r.qoe.stall_count > 0),
        startup_s=_percentile_row(startups),
        stall_s=_percentile_row(stalls),
        stall_rate=_percentile_row(stall_rates),
        bitrate_mbps=_percentile_row(bitrates),
        jain_bitrate=jain_index(bitrates),
        per_service=per_service,
    )


# ---------------------------------------------------------------------------
# Outcome
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetOutcome:
    """Everything one executed :class:`FleetSpec` produced.

    Comparable fields (spec, client records, population, tick stats,
    metrics) are pure functions of the spec — the determinism gate runs
    the same spec twice and asserts ``==`` plus identical
    :meth:`to_json`.  ``results`` (live per-client object graphs, only
    on in-process runs that asked) is excluded from comparison, exactly
    like ``RunOutcome.result``.
    """

    spec: FleetSpec
    clients: tuple[ClientRecord, ...]
    population: PopulationSummary
    tick_stats: TickStats
    metrics: MetricsSnapshot
    results: Optional[tuple[ClientResult, ...]] = field(
        default=None, repr=False, compare=False
    )

    def to_json(self) -> dict:
        return {
            "engine": self.spec.engine,
            "clients": [
                {
                    "client_id": r.client_id,
                    "service": r.service_name,
                    "device": r.device_class,
                    "arrival_s": r.arrival_s,
                    "departure_s": r.departure_s,
                    "final_state": r.final_state,
                    "end_reason": r.end_reason,
                    "startup_delay_s": r.qoe.startup_delay_s,
                    "stall_count": r.qoe.stall_count,
                    "total_stall_s": r.qoe.total_stall_s,
                    "played_s": r.qoe.played_s,
                    "total_bytes": r.qoe.total_bytes,
                    "average_bitrate_bps": (
                        r.qoe.average_displayed_bitrate_bps
                    ),
                }
                for r in self.clients
            ],
            "population": dataclasses.asdict(self.population),
            "tick_stats": dataclasses.asdict(self.tick_stats),
            "metrics": self.metrics.to_json(),
        }


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class FleetSession:
    """Materialised fleet: roster built, services hosted, engine picked.

    Thin composition over :class:`~repro.core.multi.MultiSession` /
    :class:`~repro.core.multi.EventDrivenMultiSession`: per-client
    naming (``H1#7``), content seeding (``content_seed + index``) and
    URL namespacing (``https://cdn7.example.com``) are fixed by the
    client's roster position, so both engines build the same cell and
    the small-N identity tests compare byte for byte.
    """

    def __init__(self, spec: FleetSpec):
        self.spec = spec
        self.plans = spec.roster()
        self.server = OriginServer()
        builts = []
        for plan in self.plans:
            service = (
                get_service(plan.service)
                if isinstance(plan.service, str)
                else plan.service
            )
            distinct = dataclasses.replace(
                service, name=f"{service.name}#{plan.index}"
            )
            player_config = None
            if plan.device.config_overrides:
                player_config = dataclasses.replace(
                    distinct.player_config(),
                    **dict(plan.device.config_overrides),
                )
            builts.append(
                build_service(
                    distinct,
                    self.server,
                    duration_s=spec.content_duration_s or spec.duration_s,
                    content_seed=plan.content_seed,
                    base_url=f"https://cdn{plan.index}.example.com",
                    player_config=player_config,
                )
            )
        session_cls = (
            EventDrivenMultiSession if spec.engine == "event" else MultiSession
        )
        self.session = session_cls(
            builts,
            self.server,
            spec.resolved_schedule(),
            dt=spec.dt,
            rtt_s=spec.rtt_s,
            faults=spec.faults,
            arrivals=[plan.arrival_s for plan in self.plans],
            departures=[plan.departure_s for plan in self.plans],
        )

    def run(self) -> list[ClientResult]:
        """Run to the spec's horizon; device names stamped onto records."""
        results = self.session.run(self.spec.duration_s)
        for result, plan in zip(results, self.plans):
            result.record = replace(
                result.record, device_class=plan.device.name
            )
        return results

    @property
    def tick_stats(self) -> TickStats:
        return TickStats.from_session(self.session)


def _populate_registry(
    registry: MetricsRegistry,
    records: tuple[ClientRecord, ...],
    population: PopulationSummary,
) -> None:
    """Population outputs through the obs plane (determinism contract:
    everything here is a pure function of the FleetSpec)."""
    registry.counter("fleet.clients").inc(len(records))
    registry.counter("fleet.arrived").inc(population.arrived)
    registry.counter("fleet.departed").inc(population.departed)
    registry.counter("fleet.completed").inc(population.completed)
    registry.counter("fleet.stalled").inc(population.stalled)
    registry.gauge("fleet.jain_bitrate").set(population.jain_bitrate)
    for record in records:
        registry.counter(
            "fleet.clients.by_service", service=record.service_name
        ).inc()
        registry.counter(
            "fleet.clients.by_device", device=record.device_class
        ).inc()
        registry.counter(
            "fleet.clients.by_state", state=record.final_state
        ).inc()
        if record.final_state == "unarrived":
            continue
        if record.qoe.startup_delay_s is not None:
            registry.histogram("fleet.startup_s").observe(
                record.qoe.startup_delay_s
            )
        registry.histogram("fleet.stall_s").observe(
            record.qoe.total_stall_s
        )
        registry.histogram(
            "fleet.bitrate_mbps", buckets=BITRATE_BUCKETS
        ).observe(record.qoe.average_displayed_bitrate_bps / 1e6)


def run_fleet(
    spec: FleetSpec,
    *,
    keep_results: bool = False,
) -> FleetOutcome:
    """Execute one fleet in process and return its full outcome.

    The fleet counterpart of :func:`~repro.core.run.run_one` (which
    dispatches here when handed a FleetSpec, so ``execute()``, the
    cache, the supervisor and the journal all take fleets unchanged).
    ``keep_results`` attaches the live per-client handles; a fleet
    carries its cost story in ``tick_stats``.
    """
    session = FleetSession(spec)
    results = session.run()
    records = tuple(result.record for result in results)
    population = summarize_population(records)
    registry = MetricsRegistry()
    _populate_registry(registry, records, population)
    session.session.record_loop_metrics(registry)
    return FleetOutcome(
        spec=spec,
        clients=records,
        population=population,
        tick_stats=session.tick_stats,
        metrics=registry.snapshot(),
        results=tuple(results) if keep_results else None,
    )
