"""The four workloads: their inputs, set-up, operations and checks.

Every workload is a closed loop over a fixed *operation set*: one
caller starts the next operation when the previous one has returned,
and the whole set is repeated until the run's seconds are up (at least
``MIN_REPETITIONS`` times).  An operation's time is the median of its
repetitions, each normalised by the host's speed around it
(``bench/stats.py``).  The traced pass replays the set once, so
per-layer totals cover a fixed amount of work.

``--seed`` derives every input: the trace seed of the cellular
profiles, the content (encoding) seeds and the fleet's churn seed.
Seed 0 reproduces the repository defaults (``TRACE_SEED``,
``DEFAULT_CONTENT_SEED`` and the fleet bench's ``churn_seed=1``).
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import re
import signal
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, sleep
from typing import Callable, Optional

from repro import (
    ALL_SERVICE_NAMES,
    ConstantSchedule,
    RunSpec,
    aggregate_metrics,
    execute,
    run_one,
)
from repro.blackbox import standard_fault_scenarios
from repro.core import (
    FailedOutcome,
    FleetSession,
    FleetSpec,
    SweepJournal,
    close_worker_pool,
    summarize_population,
)
from repro.media import clear_asset_cache
from repro.net.traces import PROFILE_COUNT, TRACE_SEED
from repro.services.profiles import DEFAULT_CONTENT_SEED

from bench import SRC
from bench.stats import REFERENCE_LOOP_S, host_speed, normalised

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: How long a ``repro worker`` daemon may take to print its address.
DAEMON_START_S = 60.0


@dataclass
class Op:
    """One operation: ``call`` runs it and returns
    ``(wall_s, sim_s, outcome, setup_s)``; ``setup_s`` is the untimed
    per-operation set-up, where the workload has one.  ``attempted``
    counts the results it produces (leases, for a sweep pass).
    ``fans_out`` marks work done by other processes, which the host
    speed sampled in this one does not describe: such an operation is
    timed raw, checked and traced, but left out of the end-to-end
    metrics."""

    label: str
    call: Callable[[], tuple]
    attempted: int = 1
    fans_out: bool = False
    spec: object = None
    oracle: bool = False
    journal: Optional[Path] = None


@dataclass
class OpResult:
    op: Op
    op_id: int
    wall_s: float
    sim_s: float
    outcome: object
    setup_s: Optional[float] = None
    failed: int = 0
    error: Optional[str] = None
    speed_s: tuple[float, float] = (REFERENCE_LOOP_S, REFERENCE_LOOP_S)

    @property
    def time_s(self) -> float:
        """The time recorded for this run of the operation: normalised
        to the reference host when it ran in this process, the raw wall
        time when it fanned out to others."""
        if self.op.fans_out:
            return self.wall_s
        return normalised(self.wall_s, *self.speed_s)


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.trace_seed = TRACE_SEED + seed
        self.content_seed = DEFAULT_CONTENT_SEED + 1000 * seed

    def setup(self) -> None:
        """One set-up: everything the first timed operation must find
        ready (encoded catalogues, a spawned pool, connected daemons)."""

    def setup_samples(self) -> list[float]:
        """Set up ``SETUP_REPEATS`` times; the last set-up stays in use.
        What the previous set-up started is stopped before the clock
        starts."""
        samples = []
        for _ in range(SETUP_REPEATS):
            self.close()
            before = host_speed()
            start = perf_counter()
            self.setup()
            samples.append(normalised(perf_counter() - start, before,
                                      host_speed()))
        return samples

    def ops(self) -> list[Op]:
        """The operation set, fresh for each repetition (same inputs)."""
        raise NotImplementedError

    def records(self, outcome) -> list:
        """The dataclass records an outcome is judged by (for digests)."""
        raise NotImplementedError

    def mismatches(self, expected, actual) -> int:
        """How many of an operation's results differ between two runs."""
        return int(expected != actual)

    def check(self, results: list[OpResult]) -> int:
        """Untimed checks of the first repetition against an oracle:
        how many results failed them."""
        return 0

    def layer_counts(self, results: list[OpResult]) -> dict[str, float]:
        """Per-layer counts the program itself reports in its outcomes."""
        return {}

    def close(self) -> None:
        """Stop everything the workload started."""


# ---------------------------------------------------------------------------
# paper-grid and fault-storm: one run_one after another
# ---------------------------------------------------------------------------


class _RunOp:
    def __init__(self, spec: RunSpec):
        self.spec = spec

    def __call__(self):
        start = perf_counter()
        outcome = run_one(self.spec, keep_result=False)
        wall = perf_counter() - start
        return wall, outcome.record.duration_s, outcome, None


class _SessionGrid(Workload):
    """Single-session specs, run in process on the event engine.

    The set is the grid's rounds ``round_indices``; each round runs
    every service once, and a full cycle of rounds would run every grid
    cell once.  A fixed one-in-eight subsample of the grid (by grid index)
    is re-run on the tick oracle.
    """

    duration_s = 600.0
    round_indices: tuple[int, ...] = (0,)

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        super().__init__(seed, smoke, scratch)
        if smoke:
            self.duration_s = 60.0

    def _spec(self, service: str, profile_id: int, **extra) -> RunSpec:
        return RunSpec(
            service=service,
            profile_id=profile_id,
            duration_s=self.duration_s,
            trace_seed=self.trace_seed,
            content_seed=self.content_seed,
            engine="event",
            **extra,
        )

    def setup(self) -> None:
        clear_asset_cache()
        for service in ALL_SERVICE_NAMES:
            self._spec(service, 1).build()

    def _cells(self, round_index: int) -> list[tuple[int, RunSpec]]:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        return [
            Op(label="run", call=_RunOp(spec), spec=spec,
               oracle=grid_index % 8 == 0)
            for round_index in self.round_indices[:1 if self.smoke else None]
            for grid_index, spec in self._cells(round_index)
        ]

    def records(self, outcome) -> list:
        return [outcome.record]

    def check(self, results: list[OpResult]) -> int:
        return sum(
            1 for result in results
            if result.op.oracle and result.outcome is not None
            and run_one(replace(result.op.spec, engine="tick"),
                        keep_result=False).record != result.outcome.record
        )

    def layer_counts(self, results: list[OpResult]) -> dict[str, float]:
        outcomes = [r.outcome for r in results if r.outcome is not None]
        metrics = aggregate_metrics(outcomes)
        dispatches = metrics.total("session.dispatches")
        executed = sum(o.tick_stats.ticks_executed for o in outcomes)
        simulated = sum(o.tick_stats.ticks_simulated for o in outcomes)
        pushes = metrics.total("session.queue_pushes")
        counts = {
            "engine.dispatches": dispatches,
            "engine.ticks_simulated": simulated,
            "engine.batched_share": _share(simulated - executed, simulated),
            "engine.noop_share": _share(
                metrics.value("session.events", type="noop") or 0.0,
                dispatches,
            ),
            "events.pushes_per_dispatch": _share(pushes, dispatches),
            "events.cancelled_share": _share(
                metrics.total("session.queue_cancelled"), pushes
            ),
        }
        for reason in ("horizon", "completion", "schedule", "fault"):
            counts[f"net.advance_stops.{reason}"] = (
                metrics.value("session.advance_stops", reason=reason) or 0.0
            )
        return counts


class PaperGrid(_SessionGrid):
    """12 services x 14 profiles x 600-s sessions: the paper's grid.

    The set is two rounds: every service on two profiles, 13 of the 14
    profiles in all.
    """

    name = "paper-grid"
    round_indices = (0, 1)

    def _cells(self, round_index: int) -> list[tuple[int, RunSpec]]:
        cells = []
        for service_index, service in enumerate(ALL_SERVICE_NAMES):
            profile_index = (service_index + round_index) % PROFILE_COUNT
            cells.append((
                service_index * PROFILE_COUNT + profile_index,
                self._spec(service, profile_index + 1),
            ))
        return cells


class FaultStorm(_SessionGrid):
    """8 fault scenarios x 12 services x profiles 5 and 12, 300-s runs.

    The set is four rounds: every service under the same two scenarios
    on each profile, every scenario six times.
    """

    name = "fault-storm"
    round_indices = (0, 1, 8, 9)
    duration_s = 300.0
    profiles = (5, 12)

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        super().__init__(seed, smoke, scratch)
        self.scenarios = standard_fault_scenarios(self.duration_s)

    def _cells(self, round_index: int) -> list[tuple[int, RunSpec]]:
        count = len(self.scenarios)
        profile_slot = (round_index // count) % len(self.profiles)
        cells = []
        for service_index, service in enumerate(ALL_SERVICE_NAMES):
            scenario_index = (service_index + round_index) % count
            scenario = self.scenarios[scenario_index]
            grid_index = (
                (scenario_index * len(ALL_SERVICE_NAMES) + service_index)
                * len(self.profiles) + profile_slot
            )
            cells.append((grid_index, self._spec(
                service,
                self.profiles[profile_slot],
                faults=scenario.faults,
                config_overrides=scenario.config_overrides,
            )))
        return cells


# ---------------------------------------------------------------------------
# fleet-cell: one shared cell, many clients
# ---------------------------------------------------------------------------


def _client_seconds(records, horizon_s: float) -> float:
    """Simulated client presence: arrival to departure or horizon."""
    total = 0.0
    for record in records:
        if record.final_state == "unarrived":
            continue
        end = record.departure_s if record.departure_s is not None else horizon_s
        total += max(0.0, min(end, horizon_s) - record.arrival_s)
    return total


class _FleetOp:
    def __init__(self, spec: FleetSpec):
        self.spec = spec

    def __call__(self):
        start = perf_counter()
        session = FleetSession(self.spec)
        build = perf_counter() - start
        start = perf_counter()
        results = session.run()
        records = tuple(result.record for result in results)
        population = summarize_population(records)
        wall = perf_counter() - start
        outcome = (records, population, session.tick_stats)
        return (wall, _client_seconds(records, self.spec.duration_s),
                outcome, build)


class FleetCell(Workload):
    """Six shared 30-s cells of 50 clients: H1, D1, S1 in turn.

    Each cell is the 1000-client, 150 Mbps, 50 arrivals/s cell of
    ``BENCH_fleet.json`` scaled by 0.05 in clients, capacity and arrival
    rate (same per-client share and density); per-client cost is flat
    from 50 clients up there.  Short cells let the host-speed samples
    around each one track the host: 100-client cells, about 0.9 s each
    on a loaded 2-core host, spread twice as much from run to run as
    the short operations of ``paper-grid``.  The roster lists the services in
    turn, and cell ``k`` always draws its arrivals and dwell times from
    ``churn_seed=1+k`` (cell 0 is the fleet bench's roster): a cell's
    cost follows its roster by +-10%, more than the run-to-run noise
    the bounds allow, so the seed moves only the content.  The cells'
    300 distinct catalogues overflow the 256-entry asset cache, so
    every build re-encodes; builds are the per-cell set-up, timed apart
    from the run.
    """

    name = "fleet-cell"
    cells = 6

    def _spec(self, cell: int) -> FleetSpec:
        clients = 10 if self.smoke else 50
        scale = clients / 1000
        return FleetSpec(
            services=tuple(
                ("H1", "D1", "S1")[i % 3] for i in range(clients)
            ),
            schedule=ConstantSchedule(150e6 * scale),
            duration_s=30.0,
            content_duration_s=20.0,
            arrival_rate_per_s=50.0 * scale,
            mean_dwell_s=20.0,
            churn_seed=1 + cell,
            content_seed=self.content_seed + 100 * cell,
            engine="event",
        )

    def setup(self) -> None:
        # Lazy imports (NumPy for the water-fill) land before timing.
        FleetSession(self._spec(0)).run()

    def setup_samples(self) -> list[float]:
        self.setup()
        return []  # the per-cell builds are this workload's set-ups

    def ops(self) -> list[Op]:
        specs = [self._spec(cell) for cell in range(self.cells)]
        return [Op(label="cell", call=_FleetOp(spec), spec=spec)
                for spec in specs]

    def records(self, outcome) -> list:
        return list(outcome[0])

    def check(self, results: list[OpResult]) -> int:
        """The first cell must match on the tick oracle."""
        first = results[0]
        if first.outcome is None:
            return 0
        tick = _FleetOp(replace(first.op.spec, engine="tick"))()[2]
        return int(tick[0] != first.outcome[0])

    def layer_counts(self, results: list[OpResult]) -> dict[str, float]:
        return {"multi.dispatches": sum(
            r.outcome[2].ticks_executed for r in results
            if r.outcome is not None
        )}


# ---------------------------------------------------------------------------
# sweep-fabric: execute() over the pool, the cache, the journal and hosts
# ---------------------------------------------------------------------------


def _pass_seconds(outcomes) -> float:
    return sum(
        o.record.duration_s for o in outcomes
        if not isinstance(o, FailedOutcome)
    )


class _PassOp:
    """One ``execute`` call over a batch of the sweep's specs."""

    def __init__(self, specs, **kwargs):
        self.specs = specs
        self.kwargs = kwargs

    def __call__(self):
        start = perf_counter()
        outcomes = execute(self.specs, **self.kwargs)
        wall = perf_counter() - start
        return wall, _pass_seconds(outcomes), outcomes, None


class SweepFabric(Workload):
    """12 services x the 7 odd profiles of 20-s sessions: 84 leases.

    Sessions are short so that key hashing, pickling, cache put/get and
    journal fsync make up much of a lease's cost.  The set is one cycle
    on a warm fabric:

    - ``local``: twelve cold sweeps in this process, one per service
      over its 7 profiles (``workers=0``, a fresh journal each), which
      write one fresh cache;
    - ``warm``: all 84 leases against the now-full cache, which only
      reads;
    - ``pool``: a cold pass over 2 pool workers (fresh cache and
      journal);
    - ``hosts``: a pass sharded over two loopback ``repro worker``
      daemons with a fresh journal.

    The last two fan out.  On a shared 2-core host their medians moved
    by 15-26% from run to run, whatever the host-speed samples in this
    process said, so they are checked and traced but left out of the
    end-to-end metrics, which the in-process sweeps carry.  Those are
    per service because a short operation is normalised well by the
    speed samples around it; one 84-lease pass, about 0.75 s, was not.
    """

    name = "sweep-fabric"
    workers = 2

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        super().__init__(seed, smoke, scratch)
        profiles = range(1, 3 if smoke else PROFILE_COUNT + 1, 2)
        duration = 10.0 if smoke else 20.0
        self.specs = [
            RunSpec(
                service=service,
                profile_id=profile_id,
                duration_s=duration,
                trace_seed=self.trace_seed,
                content_seed=self.content_seed,
                engine="event",
            )
            for service in ALL_SERVICE_NAMES
            for profile_id in profiles
        ]
        self.daemons: list[subprocess.Popen] = []
        self.hosts: list[str] = []
        self._dirs = itertools.count()

    # -- daemons -----------------------------------------------------------

    def _start_daemons(self) -> None:
        """Start the daemons, each logging to a file (an unread pipe
        could fill and stall one), and wait for their addresses."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        logs = []
        for _ in range(self.workers):
            log = self.scratch / f"daemon-{next(self._dirs)}.log"
            with open(log, "w") as handle:
                self.daemons.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--listen", "127.0.0.1:0"],
                    stdout=handle, stderr=subprocess.STDOUT,
                    stdin=subprocess.DEVNULL, env=env, cwd=self.scratch,
                ))
            logs.append(log)
        deadline = perf_counter() + DAEMON_START_S
        for daemon, log in zip(self.daemons, logs):
            while True:
                match = re.search(r"listening on (\S+)", log.read_text())
                if match is not None:
                    self.hosts.append(match.group(1))
                    break
                if daemon.poll() is not None or perf_counter() > deadline:
                    raise RuntimeError(
                        f"worker daemon did not start: {log.read_text()!r}")
                sleep(0.01)

    def _stop_daemons(self) -> None:
        for daemon in self.daemons:
            if daemon.poll() is None:
                daemon.send_signal(signal.SIGTERM)
        for daemon in self.daemons:
            try:
                daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=10)
        self.daemons = []
        self.hosts = []

    # -- workload ----------------------------------------------------------

    def setup(self) -> None:
        clear_asset_cache()
        for spec in {s.service: s for s in self.specs}.values():
            spec.build()
        # Forked pool workers inherit the parent's encoded catalogues.
        first = self.specs[:2]
        execute(first, workers=self.workers)
        self._start_daemons()
        execute(first, hosts=self.hosts)

    def _fresh(self, kind: str) -> Path:
        return self.scratch / f"{kind}-{next(self._dirs)}"

    def ops(self) -> list[Op]:
        leases = len(self.specs)
        cache = self._fresh("cache")
        ops = []
        for service in ALL_SERVICE_NAMES:
            group = [s for s in self.specs if s.service == service]
            journal = self._fresh("journal")
            ops.append(Op(
                label="local", attempted=len(group), journal=journal,
                call=_PassOp(group, workers=0, cache=cache, journal=journal),
            ))
        ops.append(Op(
            label="warm", attempted=leases,
            call=_PassOp(self.specs, workers=0, cache=cache,
                         journal=self._fresh("journal")),
        ))
        journal = self._fresh("journal")
        ops.append(Op(
            label="pool", attempted=leases, journal=journal, fans_out=True,
            call=_PassOp(self.specs, workers=self.workers,
                         cache=self._fresh("cache"), journal=journal),
        ))
        journal = self._fresh("journal")
        ops.append(Op(
            label="hosts", attempted=leases, journal=journal, fans_out=True,
            call=_PassOp(self.specs, hosts=self.hosts, journal=journal),
        ))
        return ops

    def records(self, outcome) -> list:
        return [o.record if not isinstance(o, FailedOutcome) else o
                for o in outcome]

    def mismatches(self, expected, actual) -> int:
        return sum(1 for e, a in zip(expected, actual) if e != a) + abs(
            len(expected) - len(actual)
        )

    def check(self, results: list[OpResult]) -> int:
        """Every pass must equal a ``workers=0`` run of a 1-in-8 sample
        and the local sweeps taken together (which run the specs in
        order); no lease may come back quarantined."""
        sample = list(range(0, len(self.specs), 8))
        oracle = execute([self.specs[i] for i in sample], workers=0)
        local = [r.outcome for r in results if r.op.label == "local"]
        cold = (None if any(o is None for o in local)
                else [o for outcome in local for o in outcome])
        passes = [r.outcome for r in results
                  if r.op.label != "local" and r.outcome is not None]
        failed = sum(
            1 for outcome in local if outcome is not None
            for o in outcome if isinstance(o, FailedOutcome)
        )
        for outcome in ([cold] if cold is not None else []) + passes:
            failed += sum(
                1 for i, expected in zip(sample, oracle)
                if outcome[i] != expected
            )
        for outcome in passes:
            failed += sum(1 for o in outcome if isinstance(o, FailedOutcome))
            if cold is not None:
                failed += self.mismatches(cold, outcome)
        return failed

    def layer_counts(self, results: list[OpResult]) -> dict[str, float]:
        counts = {}
        for label, metric in (("pool", "sweep"), ("hosts", "sweep.hosts")):
            passes = [r for r in results if r.op.label == label]
            simulate = sum(
                entry.get("duration", 0.0)
                for r in passes
                for entry in SweepJournal(r.op.journal).entries().values()
            )
            leases = sum(r.op.attempted for r in passes)
            wall = sum(r.wall_s for r in passes)
            counts[f"{metric}.simulate_s"] = simulate
            counts[f"{metric}.overhead_ms_per_lease"] = (
                (self.workers * wall - simulate) / leases * 1e3
            )
        return counts

    def close(self) -> None:
        try:
            self._stop_daemons()
        finally:
            close_worker_pool()


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperGrid, FaultStorm, FleetCell, SweepFabric)
}


def record_tuples(workload: Workload, outcome) -> list[tuple]:
    """Canonical record content: ``dataclasses.astuple`` sees every
    field, including the ``repr=False`` QoE and timelines."""
    return [
        dataclasses.astuple(record) for record in workload.records(outcome)
    ]
