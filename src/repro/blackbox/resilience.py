"""Resilience sweep: the 12 services under a battery of fault scenarios.

Section 3.3.3's finding — a fixed long retry interval turns transient
errors into long stalls while capped exponential backoff recovers
quickly — generalises into a grid: services x fault scenarios, each
cell one deterministic faulted session summarised by its stall /
failure / QoE profile.  Scenarios are plain frozen values built from
:class:`~repro.analysis.faults.FaultSpec`, so the whole sweep rides the
parallel engine and reproduces bit-identically for any ``--workers``
setting and on either engine.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

from repro.analysis.faults import (
    ErrorBurst,
    FaultSpec,
    SeededErrors,
    SeededTruncation,
)
from repro.core.outcome_cache import CacheSpec
from repro.core.parallel import RunRecord, RunSpec
from repro.core.run import aggregate_metrics, execute
from repro.core.supervisor import FailedOutcome, JournalSpec, SweepPolicy
from repro.net.faults import DeadAirWindow, LatencySpikeWindow
from repro.net.http import ContentKind
from repro.obs import MetricsSnapshot
from repro.services.profiles import ALL_SERVICE_NAMES, ServiceSpec


@dataclass(frozen=True)
class FaultScenario:
    """One named fault configuration applied to every service."""

    name: str
    description: str
    faults: Optional[FaultSpec]  # None = clean baseline
    config_overrides: tuple[tuple[str, object], ...] = ()


def standard_fault_scenarios(duration_s: float = 120.0) -> tuple[FaultScenario, ...]:
    """The stock battery, with fault windows placed relative to run length.

    Every scenario is deterministic: bursts and windows are clock-driven
    and the seeded models draw from their own fixed-seed streams.
    """
    d = duration_s
    return (
        FaultScenario(
            name="baseline",
            description="no faults injected (control cell)",
            faults=None,
        ),
        FaultScenario(
            name="error-burst",
            description="origin returns 503 for all media for 10% of the run",
            faults=FaultSpec(
                error_bursts=(ErrorBurst(start_s=0.25 * d, end_s=0.35 * d),)
            ),
        ),
        FaultScenario(
            name="flaky-origin",
            description="8% of media requests fail with 500 (seeded)",
            faults=FaultSpec(seeded_errors=(SeededErrors(rate=0.08),)),
        ),
        FaultScenario(
            name="truncation",
            description="15% of media responses stop short then close",
            faults=FaultSpec(truncation=SeededTruncation(rate=0.15)),
        ),
        FaultScenario(
            name="dead-air",
            description="two capacity-zero windows (8 s and 5 s) mid-run",
            faults=FaultSpec(
                dead_air=(
                    DeadAirWindow(start_s=0.3 * d, end_s=0.3 * d + 8.0),
                    DeadAirWindow(start_s=0.7 * d, end_s=0.7 * d + 5.0),
                )
            ),
        ),
        FaultScenario(
            name="latency-spikes",
            description="+400 ms request latency over the middle third",
            faults=FaultSpec(
                latency_spikes=(
                    LatencySpikeWindow(
                        start_s=0.2 * d, end_s=0.5 * d, extra_s=0.4
                    ),
                )
            ),
        ),
        FaultScenario(
            name="reset-storm",
            description="three mid-transfer connection resets",
            faults=FaultSpec(reset_times=(0.3 * d, 0.45 * d, 0.6 * d)),
        ),
        FaultScenario(
            name="manifest-outage",
            description="manifest requests fail for the first 6 s",
            faults=FaultSpec(
                error_bursts=(
                    ErrorBurst(
                        start_s=0.0, end_s=6.0, kinds=(ContentKind.MANIFEST,)
                    ),
                )
            ),
        ),
    )


@dataclass(frozen=True)
class ResilienceCell:
    """One (service, scenario) outcome, distilled from its RunRecord."""

    service: str
    scenario: str
    final_state: str
    end_reason: Optional[str]
    startup_delay_s: Optional[float]
    stall_count: int
    stall_s: float
    longest_stall_s: float
    download_failures: int
    downloads_given_up: int
    segments_skipped: int
    played_s: float
    total_bytes: int


@dataclass(frozen=True)
class ResilienceReport:
    """The full sweep: scenarios x services, in submission order."""

    profile_id: int
    duration_s: float
    scenarios: tuple[FaultScenario, ...]
    cells: tuple[ResilienceCell, ...]
    # Which simulation core produced the cells ("event" | "tick").
    # Compared: the engine axis is part of what the sweep ran, even
    # though cells are pinned identical across engines.
    engine: str = "event"
    # Sweep-wide aggregated metrics.  Excluded from equality: tick-mode
    # counters legitimately differ across engines while the report's
    # semantic content stays identical.
    metrics: Optional[MetricsSnapshot] = field(default=None, compare=False)

    def cell(self, service: str, scenario: str) -> ResilienceCell:
        for cell in self.cells:
            if cell.service == service and cell.scenario == scenario:
                return cell
        raise KeyError(f"no cell for ({service}, {scenario})")

    def to_json(self) -> dict:
        return {
            "profile_id": self.profile_id,
            "duration_s": self.duration_s,
            "engine": self.engine,
            "scenarios": [
                {"name": s.name, "description": s.description}
                for s in self.scenarios
            ],
            "cells": [asdict(cell) for cell in self.cells],
        }

    def render(self) -> str:
        lines = [
            f"Resilience sweep: profile {self.profile_id}, "
            f"{self.duration_s:.0f} s per run",
            "",
        ]
        header = (
            f"{'service':<8}{'scenario':<16}{'state':<9}{'startup':>8}"
            f"{'stalls':>7}{'stall_s':>9}{'worst':>7}{'fail':>6}"
            f"{'gaveup':>7}{'skip':>6}  reason"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for cell in self.cells:
            startup = (
                f"{cell.startup_delay_s:.1f}"
                if cell.startup_delay_s is not None
                else "-"
            )
            lines.append(
                f"{cell.service:<8}{cell.scenario:<16}{cell.final_state:<9}"
                f"{startup:>8}{cell.stall_count:>7}{cell.stall_s:>9.1f}"
                f"{cell.longest_stall_s:>7.1f}{cell.download_failures:>6}"
                f"{cell.downloads_given_up:>7}{cell.segments_skipped:>6}"
                f"  {cell.end_reason or '-'}"
            )
        return "\n".join(lines)


def _cell_from_failure(
    failure: FailedOutcome, scenario: FaultScenario
) -> ResilienceCell:
    """A quarantined lease still gets a cell — typed, not silently lost.

    ``final_state="quarantined"`` marks the cell as supervision fallout
    (the spec kept failing or timing out under
    :class:`~repro.core.supervisor.SweepPolicy`), with the failure kind
    as the end reason; every measured field is zero/None because the
    run never produced a comparable record.
    """
    return ResilienceCell(
        service=failure.spec.service_name,
        scenario=scenario.name,
        final_state="quarantined",
        end_reason=failure.kind,
        startup_delay_s=None,
        stall_count=0,
        stall_s=0.0,
        longest_stall_s=0.0,
        download_failures=0,
        downloads_given_up=0,
        segments_skipped=0,
        played_s=0.0,
        total_bytes=0,
    )


def _cell_from_record(
    record: RunRecord, scenario: FaultScenario
) -> ResilienceCell:
    longest = max((stall for _, stall in record.stall_timeline), default=0.0)
    return ResilienceCell(
        service=record.service_name,
        scenario=scenario.name,
        final_state=record.final_state,
        end_reason=record.end_reason,
        startup_delay_s=record.true_startup_delay_s,
        stall_count=record.true_stall_count,
        stall_s=record.true_stall_s,
        longest_stall_s=longest,
        download_failures=record.download_failures,
        downloads_given_up=record.downloads_given_up,
        segments_skipped=record.segments_skipped,
        played_s=record.final_position_s,
        total_bytes=record.total_bytes,
    )


def run_resilience_sweep(
    services: Optional[Sequence[Union[str, ServiceSpec]]] = None,
    scenarios: Optional[Sequence[FaultScenario]] = None,
    *,
    profile_id: int = 9,
    duration_s: float = 120.0,
    workers: int = 0,
    engine: str = "event",
    cache: CacheSpec = None,
    policy: Optional[SweepPolicy] = None,
    journal: JournalSpec = None,
    hosts: Optional[Sequence[str]] = None,
) -> ResilienceReport:
    """Run the services x scenarios grid and distill it into a report.

    Determinism contract: the report is a pure function of the
    arguments — records come back in spec order from the sweep engine,
    and each cell is a pure function of its spec — so any ``workers``
    value (and either engine, per the fault-plane change-point
    contract) yields an identical report.  ``cache``
    (sweep-fabric outcome cache) memoises cells: fault specs are frozen
    data, so a faulted outcome is as content-addressable as a clean
    one, and a re-run sweep costs disk reads.

    ``policy`` / ``journal`` pass through to
    :func:`~repro.core.run.execute` for crash-safe supervision: with a
    journal a killed sweep resumes instead of restarting, and with
    quarantine enabled a poison cell comes back as
    ``final_state="quarantined"`` instead of sinking the grid.
    ``hosts`` shards the grid over ``repro worker`` daemons
    (:mod:`repro.core.distributed`); the report stays identical — cells
    are pure functions of their specs wherever they execute.
    """
    if services is None:
        services = ALL_SERVICE_NAMES
    if scenarios is None:
        scenarios = standard_fault_scenarios(duration_s)
    specs: list[RunSpec] = []
    for scenario in scenarios:
        for service in services:
            specs.append(
                RunSpec(
                    service=service,
                    profile_id=profile_id,
                    duration_s=duration_s,
                    faults=scenario.faults,
                    config_overrides=scenario.config_overrides,
                    engine=engine,
                )
            )
    outcomes = execute(
        specs, workers=workers, cache=cache, policy=policy,
        journal=journal, hosts=hosts,
    )
    cells = []
    index = 0
    for scenario in scenarios:
        for _ in services:
            outcome = outcomes[index]
            if isinstance(outcome, FailedOutcome):
                cells.append(_cell_from_failure(outcome, scenario))
            else:
                cells.append(_cell_from_record(outcome.record, scenario))
            index += 1
    return ResilienceReport(
        profile_id=profile_id,
        duration_s=duration_s,
        engine=engine,
        scenarios=tuple(scenarios),
        cells=tuple(cells),
        metrics=aggregate_metrics(outcomes),
    )
