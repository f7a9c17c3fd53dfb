"""Run specs and records: the picklable unit of every sweep.

The methodology of section 2.6 is a sweep — 12 services x 14 cellular
profiles x repetitions, 10 minutes each — and every run is independent
of every other.  This module describes each run as a picklable
:class:`RunSpec` and distils its result into a compact
:class:`RunRecord` instead of live player/proxy graphs;
:func:`repro.core.run.execute` runs them, in process or over worker
processes.

Determinism guarantee: a record is a pure function of its spec — the
simulation seeds everything from the spec and nothing in a record
depends on wall time or worker identity — so ``workers=N`` and
``workers=0`` produce bit-identical sequences.

Workers warm the per-process asset-encoding cache
(:mod:`repro.media.cache`) on their first run of each (service,
duration, seed) combination; the locality-aware scheduling in
:func:`repro.core.run.execute` groups specs by :func:`catalogue_key`
so each worker encodes each combination at most once, and the
persistent pool (:mod:`repro.core.pool`) keeps those warmed workers
alive across calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Hashable, Optional, Sequence, Union

from repro.analysis.faults import FaultSpec
from repro.analysis.proxy import ManifestRewriter
from repro.analysis.qoe import QoeReport
from repro.core.events import EventDrivenSession
from repro.core.multi import ENGINES
from repro.core.session import ResultFieldMissing, Session, SessionResult
from repro.net.rrc import RrcState
from repro.net.schedule import BandwidthSchedule
from repro.net.traces import (
    TRACE_SEED,
    CellularTrace,
    profile_schedule,
    profile_trace,
    trace_schedule,
)
from repro.obs import Observability, TraceConfig
from repro.player.config import PlayerConfig
from repro.player.events import (
    DownloadFailed,
    SegmentPlayStarted,
    SegmentSkipped,
    SessionEnded,
    StallEnded,
)
from repro.server.origin import OriginServer
from repro.services.profiles import (
    DEFAULT_CONTENT_SEED,
    ServiceSpec,
    build_service,
    get_service,
)

@dataclass(frozen=True)
class RunSpec:
    """A picklable description of one (service, profile, repetition) run.

    ``service`` is a registered service name or a full
    :class:`ServiceSpec` (itself a frozen, picklable dataclass).
    ``config_overrides`` are (field, value) pairs applied with
    ``dataclasses.replace`` to the spec-derived
    :class:`~repro.player.config.PlayerConfig`; only simple fields can
    be overridden this way, which is exactly what keeps a spec
    picklable (the config's algorithm factories are closures).

    The bandwidth source resolves in priority order: an explicit
    ``schedule``, else an explicit ``trace``, else the synthetic
    cellular profile ``profile_id``.  ``tracing`` attaches a trace-spine
    sink description (picklable; the live tracer is created inside the
    executing process).
    """

    service: Union[str, ServiceSpec]
    profile_id: int = 0
    repetition: int = 0
    duration_s: float = 600.0
    dt: float = 0.1
    rtt_s: float = 0.05
    content_seed: Optional[int] = None  # default: DEFAULT_CONTENT_SEED + repetition
    content_duration_s: Optional[float] = None
    trace: Optional[CellularTrace] = None  # overrides (profile_id, trace_seed)
    trace_duration_s: Optional[float] = None
    trace_seed: int = TRACE_SEED
    config_overrides: tuple[tuple[str, object], ...] = ()
    # Fault injection (frozen + picklable, so it rides in the spec)
    faults: Optional[FaultSpec] = None
    # Explicit bandwidth schedule (e.g. ConstantSchedule); overrides
    # both trace and profile_id.  All stock schedules are frozen
    # dataclasses, so the spec stays picklable and keyable.
    schedule: Optional[BandwidthSchedule] = None
    # Observability: per-run trace sink description (None = disabled).
    tracing: Optional[TraceConfig] = None
    # Simulation engine: "event" is the event-driven core
    # (core/events.py), "tick" the per-tick oracle loop it is pinned
    # byte-identical to.  Part of the compared spec, so it
    # participates in the outcome-cache key.
    engine: str = "event"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )

    @property
    def service_name(self) -> str:
        return self.service if isinstance(self.service, str) else self.service.name

    @property
    def resolved_content_seed(self) -> int:
        if self.content_seed is not None:
            return self.content_seed
        return DEFAULT_CONTENT_SEED + self.repetition

    def _profile_args(self) -> tuple[int, int, int]:
        return (
            self.profile_id,
            int(self.trace_duration_s or self.duration_s),
            self.trace_seed,
        )

    def resolved_trace(self) -> CellularTrace:
        if self.trace is not None:
            return self.trace
        return profile_trace(*self._profile_args())

    def resolved_schedule(self) -> BandwidthSchedule:
        if self.schedule is not None:
            return self.schedule
        if self.trace is not None:
            return trace_schedule(self.trace)
        return profile_schedule(*self._profile_args())

    def build(
        self,
        *,
        server: Optional[OriginServer] = None,
        obs: Optional[Observability] = None,
        player_config: Optional[PlayerConfig] = None,
        manifest_rewriter: Optional[ManifestRewriter] = None,
        reject_after_segments: Optional[int] = None,
    ) -> Session:
        """Materialise the spec into a ready-to-run :class:`Session`.

        The single construction path behind every entry point
        (``run_one`` and ``execute``): encode + host the service, apply
        ``config_overrides`` (or an explicit ``player_config`` —
        live-object extras like it and ``manifest_rewriter`` exist for
        in-process callers and never ride the spec across workers).
        """
        service = (
            get_service(self.service)
            if isinstance(self.service, str)
            else self.service
        )
        if player_config is None and self.config_overrides:
            player_config = replace(
                service.player_config(), **dict(self.config_overrides)
            )
        if server is None:
            server = OriginServer()
        built = build_service(
            service,
            server,
            duration_s=self.content_duration_s or self.duration_s,
            content_seed=self.resolved_content_seed,
            player_config=player_config,
        )
        session_cls = EventDrivenSession if self.engine == "event" else Session
        return session_cls(
            built,
            server,
            self.resolved_schedule(),
            dt=self.dt,
            rtt_s=self.rtt_s,
            manifest_rewriter=manifest_rewriter,
            reject_after_segments=reject_after_segments,
            faults=self.faults,
            obs=obs,
        )


def catalogue_key(spec: RunSpec) -> Hashable:
    """The asset-encode identity of a spec: which catalogue its session
    needs, keyed exactly as :class:`~repro.media.cache.AssetCache` keys
    encodes.  Specs sharing a catalogue key are scheduled onto the same
    worker chunk so the sweep fabric encodes each catalogue as few
    times as possible."""
    service = (
        get_service(spec.service)
        if isinstance(spec.service, str)
        else spec.service
    )
    return service.encoding_cache_key(
        spec.content_duration_s or spec.duration_s,
        spec.resolved_content_seed,
    )


@dataclass(frozen=True)
class RunRecord:
    """Compact, serializable result of one run (no live objects).

    Every field is a pure function of the producing :class:`RunSpec`,
    so serial and parallel backends compare equal with ``==``.
    """

    service_name: str
    profile_id: int
    repetition: int
    requested_duration_s: float
    duration_s: float  # simulated clock at session end
    final_state: str
    final_position_s: float
    qoe: QoeReport = field(repr=False)
    true_startup_delay_s: Optional[float]
    true_stall_count: int
    true_stall_s: float
    total_bytes: int
    radio_energy_j: float
    radio_idle_fraction: float
    # (at, declared_bitrate_bps) per displayed video segment start
    bitrate_timeline: tuple[tuple[float, float], ...] = field(repr=False)
    # (stall_end_at, stall_duration_s) per completed stall
    stall_timeline: tuple[tuple[float, float], ...] = field(repr=False)
    # Resilience accounting (fault-injection runs; zero in clean runs)
    download_failures: int = 0
    downloads_given_up: int = 0
    segments_skipped: int = 0
    end_reason: Optional[str] = None


def record_from_result(spec: RunSpec, result: SessionResult) -> RunRecord:
    """Distill a live :class:`SessionResult` into a :class:`RunRecord`."""
    missing = [
        name
        for name in ("events", "qoe", "rrc", "player")
        if getattr(result, name) is None
    ]
    if missing:
        raise ResultFieldMissing(", ".join(missing), result.replay_path)
    return RunRecord(
        service_name=result.service_name,
        profile_id=spec.profile_id,
        repetition=spec.repetition,
        requested_duration_s=spec.duration_s,
        duration_s=result.duration_s,
        final_state=result.player_state.value,
        final_position_s=result.player.position_s,
        qoe=result.qoe,
        true_startup_delay_s=result.true_startup_delay_s,
        true_stall_count=result.true_stall_count,
        true_stall_s=result.true_stall_s,
        total_bytes=result.qoe.total_bytes,
        radio_energy_j=result.rrc.energy_j,
        radio_idle_fraction=result.rrc.time_in_state[RrcState.IDLE]
        / max(sum(result.rrc.time_in_state.values()), 1e-12),
        bitrate_timeline=tuple(
            (event.at, event.declared_bitrate_bps)
            for event in result.events.of_type(SegmentPlayStarted)
        ),
        stall_timeline=tuple(
            (event.at, event.duration_s)
            for event in result.events.of_type(StallEnded)
        ),
        download_failures=len(result.events.of_type(DownloadFailed)),
        downloads_given_up=sum(
            1 for event in result.events.of_type(DownloadFailed) if event.gave_up
        ),
        segments_skipped=len(result.events.of_type(SegmentSkipped)),
        end_reason=next(
            (event.reason for event in reversed(result.events.events)
             if isinstance(event, SessionEnded)),
            None,
        ),
    )


@dataclass(frozen=True)
class TickStats:
    """How a session's simulated ticks were actually executed.

    Kept out of :class:`RunRecord` on purpose: records are compared
    with ``==`` across engines and serial / parallel backends, and
    tick accounting is exactly the thing that differs between engines.
    The tick oracle only executes; the event engines count their
    batched windows as idle (no transfer on the link) or transfer
    (``Network.advance_many``) ticks.
    """

    ticks_executed: int  # full serial loop iterations
    idle_fast_forwarded_ticks: int
    idle_fast_forward_jumps: int
    transfer_fast_forwarded_ticks: int
    transfer_fast_forward_jumps: int

    @property
    def ticks_simulated(self) -> int:
        return (
            self.ticks_executed
            + self.idle_fast_forwarded_ticks
            + self.transfer_fast_forwarded_ticks
        )

    @staticmethod
    def from_session(session) -> "TickStats":
        """From a single or a shared-link session: both keep these counters."""
        return TickStats(
            ticks_executed=session.ticks_executed,
            idle_fast_forwarded_ticks=session.fast_forwarded_ticks,
            idle_fast_forward_jumps=session.fast_forward_jumps,
            transfer_fast_forwarded_ticks=session.transfer_fast_forwarded_ticks,
            transfer_fast_forward_jumps=session.transfer_fast_forward_jumps,
        )

    def __add__(self, other: "TickStats") -> "TickStats":
        return TickStats(
            ticks_executed=self.ticks_executed + other.ticks_executed,
            idle_fast_forwarded_ticks=self.idle_fast_forwarded_ticks
            + other.idle_fast_forwarded_ticks,
            idle_fast_forward_jumps=self.idle_fast_forward_jumps
            + other.idle_fast_forward_jumps,
            transfer_fast_forwarded_ticks=self.transfer_fast_forwarded_ticks
            + other.transfer_fast_forwarded_ticks,
            transfer_fast_forward_jumps=self.transfer_fast_forward_jumps
            + other.transfer_fast_forward_jumps,
        )


TickStats.ZERO = TickStats(0, 0, 0, 0, 0)


def default_worker_count() -> int:
    """Workers to use when unspecified: leave one core free, cap at 8.

    On a single-core host this is 0 — the serial backend — because
    process fan-out cannot beat in-process execution there.
    """
    return max(0, min(8, (os.cpu_count() or 1) - 1))


def sweep_grid(
    services: Sequence[Union[str, ServiceSpec]],
    profile_ids: Sequence[int],
    *,
    repetitions: int = 1,
    **spec_kwargs,
) -> list[RunSpec]:
    """Specs for a full services x profiles x repetitions grid.

    Ordered service-major, then profile, then repetition — the same
    nesting the serial helpers use.
    """
    return [
        RunSpec(
            service=service,
            profile_id=profile_id,
            repetition=repetition,
            **spec_kwargs,
        )
        for service in services
        for profile_id in profile_ids
        for repetition in range(repetitions)
    ]
